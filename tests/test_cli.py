"""End-to-end exercises of the command-line front end via main(argv)."""

import csv
import gc
import io
import json
import keyword
import os
import pathlib
import re
import subprocess
import sys
import time
import tokenize

import pytest

from conftest import RULE_FAULTS
from termrw import cli, rules
from termrw.cli import CSV_COLUMNS, main
from termrw.demo import SHIPPED_CONJECTURES, SHIPPED_RULESETS

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# check-rules


def test_check_rules_ok(tmp_path, capsys):
    rc = main(["check-rules", write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "checked 6 rule(s): ok"


def test_check_rules_reports_violations(tmp_path, capsys):
    rc = main(["check-rules", write(tmp_path, "r.lsp", "(def-rp-rule r (equal (if x y z) x))")])
    out = capsys.readouterr().out
    assert rc == 1
    # an if-headed left side trips both the reserved-head and no-if checks
    assert "r: lhs" in out and "2 violation(s) in 1 rule(s)" in out


def test_check_rules_parse_error_is_usage(tmp_path, capsys):
    rc = main(["check-rules", write(tmp_path, "r.lsp", "(def-rp-rule r (equal")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_rules_strict_rejects_zero_samples(tmp_path, capsys):
    rc = main(["check-rules", write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]), "--strict", "--samples", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert (captured.out, captured.err) == ("", "error: samples must be >= 1\n")


def test_check_rules_missing_file(capsys):
    rc = main(["check-rules", "/nonexistent/rules.lsp"])
    assert rc == 2


def test_check_rules_attach_error_is_semantic(tmp_path, capsys):
    text = "(def-rp-rule r (equal (f x) x))\n(rp-attach-sc r no-such-rule)"
    rc = main(["check-rules", write(tmp_path, "r.lsp", text)])
    assert rc == 1


def test_check_rules_strict_passes_sound_file(tmp_path, capsys):
    rc = main(
        ["check-rules", write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]), "--strict", "--samples", "150"]
    )
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_check_rules_strict_catches_false_rule(tmp_path, capsys):
    text = "(def-rp-rule bogus (equal (binary-+ x y) (binary-+ x x)))"
    rc = main(["check-rules", write(tmp_path, "r.lsp", text), "--strict", "--samples", "200"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "soundness sample failed" in out and "witness:" in out


def test_check_rules_strict_samples_a_loghead_of_any_size(tmp_path, capsys):
    # a quarter of the draws lie near +-2^64; a size that large is undefined
    text = "(def-rp-rule lh (equal (loghead n (binary-+ x '0)) (loghead n x)))"
    assert main(["check-rules", write(tmp_path, "r.lsp", text), "--strict"]) == 0
    assert capsys.readouterr().out.strip() == "checked 1 rule(s): ok"


def test_check_rules_strict_notes_unregistered(tmp_path, capsys):
    text = "(def-rp-rule r (equal (mystery x) (mystery x)))"
    rc = main(["check-rules", write(tmp_path, "r.lsp", text), "--strict", "--samples", "50"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "unregistered functions" in captured.err


# ---------------------------------------------------------------------------
# prove


def test_prove_success(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
        ]
    )
    assert rc == 0
    # a proof within the step limit prints no note
    assert capsys.readouterr() == ("proved\n", "")


def test_prove_failure_prints_residual(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--no-side-conditions",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("not proved")
    assert "final term: (equal (d2" in out


def test_prove_orders_fast_alists(tmp_path, capsys):
    a, b = "(hons-acons 'a v 'nil)", "(hons-acons 'b w 'nil)"
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", f"(equal (+ {a} {b}) (+ {b} {a}))"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == "proved\n"


FALIST_VERDICTS = [
    # a falist literal's shadow is its chain's, whatever its quoted text says
    ("(not (hons-get 'k (falist 'nil (cons (cons 'k '1) 'nil))))", 1),
    ("(equal (hons-get 'a (falist '((a . y)) (cons (cons 'a '2) 'nil))) (cons 'a y))", 1),
    ("(equal (hons-get 'a (falist '((a . '1)) (cons (cons 'a '2) 'nil))) (cons 'a '1))", 1),
    # a hit on a quoted value is the constant pair
    ("(equal (hons-get 'a (hons-acons 'a '5 (hons-acons 'b y 'nil))) '(a . 5))", 0),
]


@pytest.mark.parametrize("mode", [[], ["--no-fast-alist"]], ids=["on", "off"])
@pytest.mark.parametrize("conjecture, status", FALIST_VERDICTS)
def test_prove_fast_alist_verdicts(tmp_path, capsys, conjecture, status, mode):
    c = write(tmp_path, "c.lsp", conjecture)
    rc = main(["prove", "--rules", write(tmp_path, "r.lsp", ""), "--conjecture", c, *mode])
    out = capsys.readouterr().out
    assert rc == status and out.startswith("not proved\n" if status else "proved\n")


def test_prove_rejects_undecodable_falist_literal(tmp_path, capsys):
    c = write(tmp_path, "c.lsp", "(hons-get 'a (falist 'nil (f x)))")
    rc = main(["prove", "--rules", write(tmp_path, "r.lsp", ""), "--conjecture", c])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {c}: falist logical part is not a quoted-key alist chain (line 1, column 14)\n"


def test_prove_rewrites_an_rp_without_a_quoted_property_to_its_payload(tmp_path, capsys):
    rules = write(tmp_path, "r.lsp", "(defthm r (equal (f x) x))")
    rc = main(["prove", "--rules", rules, "--conjecture", write(tmp_path, "c.lsp", "(equal (f (rp p x)) x)")])
    assert rc == 0
    assert capsys.readouterr().out == "proved\n"


@pytest.mark.parametrize(
    "conjecture, out",
    [
        ("(integerp (rp (if 't 'integerp 'x) 'k1))", "not proved\nfinal term: 'nil\n"),
        ("(not (integerp (rp (if 't 'integerp 'x) 'k1)))", "proved\n"),
    ],
    ids=["integerp", "its-negation"],
)
def test_prove_makes_no_wrapper_from_an_rp_whose_property_rewrites_to_a_quote(tmp_path, capsys, conjecture, out):
    c = write(tmp_path, "c.lsp", conjecture)
    rc = main(["prove", "--rules", str(DEMOS / "rules" / "tree.lsp"), "--conjecture", c, "--verify", "50"])
    assert rc == (out != "proved\n")
    assert capsys.readouterr().out == out + "verified on 50 sample(s)\n"


def test_prove_verify_prints_each_distinct_failure_once(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", "(def-rp-rule bad (equal (integerp x) 't))"),
            "--conjecture",
            write(tmp_path, "c.lsp", "(integerp a)"),
            "--verify",
            "100",
        ]
    )
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    fails = [line.rsplit("  (", 1) for line in err if "FAIL at" in line]
    assert fails and len({f for f, _n in fails}) == len(fails)
    assert any(n != "1 draw)" for _f, n in fails)


def test_prove_step_limit(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--step-limit",
            "10",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "step limit (10) exceeded" in out



def _prove_args(tmp_path, *flags):
    return [
        "prove",
        "--rules",
        write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
        "--conjecture",
        write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
        *flags,
    ]


def test_prove_rejects_a_step_limit_below_one(tmp_path, capsys):
    for n in ("0", "-5"):
        assert main(_prove_args(tmp_path, "--step-limit", n)) == 2
        assert capsys.readouterr() == ("", "error: step limit must be >= 1\n")


def test_each_subcommand_has_its_options_and_no_more(tmp_path, capsys):
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    dests = {name: [a.dest for a in p._actions if a.dest != "help"] for name, p in subs.items()}
    assert dests == {
        "check-rules": ["rule_file", "strict", "samples"],
        "prove": ["rules", "conjecture", "no_side_conditions", "no_fast_alist", "step_limit", "trace", "stats", "verify"],
        "bench-tree": ["depths", "modes"],
        "bench-falist": ["sizes", "modes"],
    }
    # any other flag is a usage error, as argparse reports it
    rules_file = write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"])
    for argv in (
        _prove_args(tmp_path, "--backchain-depth", "5"),
        _prove_args(tmp_path, "--seed", "7"),
        ["check-rules", rules_file, "--seed", "7"],
        ["bench-tree", "--depths", "3", "--repetitions", "2"],
        ["bench-tree", "--depths", "3", "--step-limit", "10"],
        ["bench-tree", "--depths", "3", "--backchain-depth", "5"],
        ["bench-falist", "--sizes", "10", "--lookups", "3"],
        ["bench-falist", "--sizes", "10", "--step-limit", "10"],
        ["bench-falist", "--sizes", "10", "--seed", "7"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_prove_stats_json(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--stats",
            str(stats_file),
        ]
    )
    assert rc == 0
    stats = json.loads(stats_file.read_text())
    assert stats["rewrite_calls"] == 113
    assert stats["rule_attempts"] == 146
    assert stats["rule_applications"] == 19
    assert stats["rewrite_s"] > 0
    assert "verify_s" not in stats and "samples_accepted" not in stats
    capsys.readouterr()
    # with --verify the file is written after the samples are drawn
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--stats",
            str(stats_file),
            "--verify",
            "50",
        ]
    )
    assert rc == 0
    verified = json.loads(stats_file.read_text())
    assert {k: verified.pop(k) for k in ("samples_accepted", "samples_skipped")} == {
        "samples_accepted": 50, "samples_skipped": 0}
    assert verified.pop("verify_s") > 0 and verified.pop("rewrite_s") > 0
    assert verified == {k: v for k, v in stats.items() if k != "rewrite_s"}
    assert capsys.readouterr().out == "proved\nverified on 50 sample(s)\n"


def test_prove_verify(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--verify",
            "100",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified on 100 sample(s)" in out


def test_prove_verify_skips_unregistered_functions(tmp_path, capsys):
    conjecture = "(equal (logand (iassoc 'k1 env) (iassoc 'k2 env)) (4vec-bitand (iassoc 'k1 env) (iassoc 'k2 env)))"
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["tree"]),
            "--conjecture",
            write(tmp_path, "c.lsp", conjecture),
            "--verify",
            "10",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "proved"
    assert "verification skipped (unregistered functions)" in captured.err


def test_prove_verify_rejects_fewer_than_one_sample(tmp_path, capsys):
    for n in ("0", "-5"):
        rc = main(
            [
                "prove",
                "--rules",
                write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
                "--conjecture",
                write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
                "--verify",
                n,
            ]
        )
        assert rc == 2
        assert capsys.readouterr() == ("", "error: verify samples must be >= 1\n")


def test_prove_stats_unwritable_is_io_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "s.json"
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"]),
            "--conjecture",
            write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"]),
            "--stats",
            str(missing),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "proved\n"
    assert captured.err.startswith("error: ") and str(missing) in captured.err
    assert captured.err.count("\n") == 1


def test_prove_without_fast_alists_scans_the_chain(tmp_path, capsys):
    conjecture = "(equal (hons-get 'b (hons-acons 'a x (hons-acons 'b y 'nil))) (cons 'b y))"
    for flags in ([], ["--no-fast-alist"]):
        rc = main(
            ["prove", "--rules", write(tmp_path, "r.lsp", ""), "--conjecture", write(tmp_path, "c.lsp", conjecture)]
            + flags
        )
        assert rc == 0
        assert capsys.readouterr().out == "proved\n"


def test_prove_trace_goes_to_stderr(tmp_path, capsys):
    from termrw.demo import tree_conjecture
    from termrw.terms import format_term

    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["tree"]),
            "--conjecture",
            write(tmp_path, "c.lsp", format_term(tree_conjecture(2))),
            "--trace",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "trace: logand-to-4vec-bitand" in captured.err
    assert "trace: integerp-of-iassoc" in captured.err


def test_prove_deep_conjecture(tmp_path, capsys):
    # reading, rewriting and checking run on the caller's thread at any depth
    n = 10_000
    chain = "".join(f"(hons-acons 'k{i} v{i} " for i in range(1, n + 1)) + "'nil" + ")" * n
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", ""),
            "--conjecture",
            write(tmp_path, "c.lsp", f"(equal (hons-get 'k1 {chain}) (cons 'k1 v1))"),
            "--verify",
            "5",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["proved", "verified on 5 sample(s)"]


def _nest(head, n, leaf):
    return f"({head} {leaf} " * (n - 1) + leaf + ")" * (n - 1)


DEEP_RULES = {
    # the rhs folds to a 5,000-deep binary-+ chain, each x wrapped on attach
    "rhs-5000-arg-plus": (
        f"(def-rp-rule sum-flat (implies (integerp x) (equal (sum-all x) (+ {' x' * 5000}))))\n"
        "(defthmd int-x (implies (integerp x) (integerp x)))\n"
        "(rp-attach-sc sum-flat int-x)",
        f"(implies (integerp a) (equal (sum-all a) (+ {' a' * 5000})))",
        1,
    ),
    "hyp-3000-deep-and": (
        f"(def-rp-rule deep-hyp (implies {_nest('and', 3000, '(integerp x)')} (equal (h x) x)))",
        "(equal (h '5) '5)",
        1,
    ),
    "lhs-3000-arg-plus": (
        f"(def-rp-rule deep-lhs (equal (g (+ {' x' * 3000})) (k x)))",
        f"(equal (g (+ {' a' * 3000})) (k a))",
        1,
    ),
    "syntaxp-3000-deep": (
        f"(def-rp-rule deep-synp (implies (syntaxp {_nest('and', 3000, '(atom x)')}) (equal (s x) x)))",
        "(equal (s a) a)",
        1,
    ),
    "let-body-5000-arg-plus": (
        f"(defthm-lambda deep-let (equal (m x) (let ((y (+ x x))) (+ {' y' * 5000}))))",
        "(equal (m '1) '10000)",
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_RULES))
def test_deep_rule_formulas_check_and_prove(tmp_path, capsys, case):
    # rule formulas are input too: ingestion and rewriting walk them on
    # the caller's thread at any depth
    rules, conjecture, count = DEEP_RULES[case]
    rules_file = write(tmp_path, "r.lsp", rules)
    assert main(["check-rules", rules_file]) == 0
    assert capsys.readouterr().out.strip() == f"checked {count} rule(s): ok"
    assert main(["prove", "--rules", rules_file, "--conjecture", write(tmp_path, "c.lsp", conjecture)]) == 0
    assert capsys.readouterr().out.strip() == "proved"


# Heads, variable names and quoted values that would break generated code if
# spliced into its source, or clash with the names the source uses.
INJECTION_RULES = r"""
(def-rp-rule p#%-of-k (p#% (k lambda)))
(def-rp-rule h"ead\{#%
  (implies (and (p#% t1) (p#% b) (syntaxp (atom None)))
           (equal (f"\{ t1 b ex App is_rp None def lambda '%{# k0 f peel RP Quote)
                  (g{}% lambda def None is_rp App ex b t1 '"q\{ Quote RP peel f k0))))
"""
INJECTION_CONJECTURE = r"""
(equal (f"\{ (k x1) (k x2) x3 x4 x5 x6 x7 x8 '%{# x9 x10 x11 x12 x13)
       (g{}% x8 x7 x6 x5 x4 x3 (k x2) (k x1) '"q\{ x13 x12 x11 x10 x9))
"""
# the names generated code may use besides keywords and its own t1, k0, ...
GENERATED_NAMES = {
    *("f", "t", "b", "ex", "App", "Quote", "RP", "peel", "equal_mod_rp", "len"),
    *("__class__", "head", "args", "value"),
}


def test_rule_names_and_constants_stay_out_of_generated_source(tmp_path, capsys, monkeypatch):
    sources = []
    real_define = rules._define

    def recording_define(source, consts):
        sources.append(source)
        return real_define(source, consts)

    monkeypatch.setattr(rules, "_define", recording_define)
    rules_file = write(tmp_path, "r.lsp", INJECTION_RULES)
    conjecture = write(tmp_path, "c.lsp", INJECTION_CONJECTURE)
    assert main(["check-rules", rules_file]) == 0
    assert capsys.readouterr().out.strip() == "checked 2 rule(s): ok"
    for flags in ([], ["--no-side-conditions"]):
        assert main(["prove", "--rules", rules_file, "--conjecture", conjecture, "--trace", *flags]) == 0
        out = capsys.readouterr()
        assert out.out.strip() == "proved"
        assert out.err.splitlines() == [
            "trace: p#%-of-k at 1 (3 -> 1 nodes)",
            "trace: p#%-of-k at 1 (3 -> 1 nodes)",
            'trace: h"ead\\{#% at 1 (17 -> 17 nodes)',
            "trace: equal-self at top (35 -> 1 nodes)",
        ]
    assert sources
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                name = tok.string
                assert keyword.iskeyword(name) or name in GENERATED_NAMES or re.fullmatch("[tk][0-9]+", name), tok
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            else:
                assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER), tok


def test_defthm_lambda_reads_a_let_buried_in_its_body(tmp_path, capsys):
    # read as defthm: each let, the one buried in the body too, reads as its body
    rules = write(tmp_path, "r.lsp", "(defthm-lambda r (equal (m x) (let ((a (g x))) (h (let ((b a)) (k b)) a))))")
    assert main(["check-rules", rules]) == 0
    assert capsys.readouterr().out.strip() == "checked 1 rule(s): ok"
    conjecture = write(tmp_path, "c.lsp", "(equal (m '1) (h (k (g '1)) (g '1)))")
    assert main(["prove", "--rules", rules, "--conjecture", conjecture]) == 0
    assert capsys.readouterr().out.strip() == "proved"


def test_strict_check_samples_every_let_chain_rule(capsys):
    # a let chain reads as one rule over registered functions, so sampling
    # skips none of them
    assert main(["check-rules", "--strict", str(DEMOS / "rules" / "let-chain.lsp")]) == 0
    out = capsys.readouterr()
    assert "soundness sampling skipped" not in out.out + out.err
    assert out.out.strip() == "checked 3 rule(s): ok"


def test_let_star_chain_reads_and_proves_in_linear_time(tmp_path, capsys):
    # each binding is read once, under the names bound before it, so a
    # 20,000-binding chain reads in time linear in its text
    n = 20_000
    bindings = " ".join(f"(x{i} (+ x{i - 1} '1))" for i in range(1, n + 1))
    conjecture = write(tmp_path, "c.lsp", f"(let* ((x0 '0) {bindings}) (equal x{n} '{n}))")
    rules = write(tmp_path, "r.lsp", "")
    t0 = time.perf_counter()
    assert main(["prove", "--rules", rules, "--conjecture", conjecture]) == 0
    elapsed = time.perf_counter() - t0
    assert capsys.readouterr().out.strip() == "proved"
    assert elapsed < 10.0, f"{elapsed:.1f} s"


def test_two_copies_of_a_let_chain_prove_equal_within_a_step_limit(capsys):
    # two separately written 40-binding let* chains: equal-self compares
    # their 41 distinct pairs of nodes, not 2^41 - 1 as trees
    args = ["--rules", str(DEMOS / "rules" / "bitand.lsp")]
    args += ["--conjecture", str(DEMOS / "conjectures" / "let-chain-twice.lsp"), "--step-limit", "1000"]
    t0 = time.perf_counter()
    assert main(["prove", *args]) == 0
    elapsed = time.perf_counter() - t0
    # the copies are rewritten once per occurrence, so the limit is hit
    assert capsys.readouterr() == ("proved\n", "note: step limit (1000) exceeded; proved from an incomplete rewrite\n")
    assert elapsed < 5.0, f"{elapsed:.1f} s"


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_runs_with_the_collector_off_and_restores_it(tmp_path, capsys, monkeypatch, enabled):
    rules_file = write(tmp_path, "r.lsp", SHIPPED_RULESETS["arith"])
    conjecture = write(tmp_path, "c.lsp", SHIPPED_CONJECTURES["three-round-to-evens"])
    seen = []

    def recording(decls):
        seen.append(gc.isenabled())
        return rules.build_ruleset(decls)

    monkeypatch.setattr(cli, "build_ruleset", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["prove", "--rules", rules_file, "--conjecture", conjecture]) == 0
        after_proof = gc.isenabled()
        assert main(["prove", "--rules", rules_file, "--conjecture", conjecture, "--step-limit", "0"]) == 2
        with pytest.raises(SystemExit):
            main(["prove", "--rules", rules_file])
        after_usage_error = gc.isenabled()

        def failing(decls):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_ruleset", failing)
        with pytest.raises(RuntimeError):
            main(["prove", "--rules", rules_file, "--conjecture", conjecture])
        after_exception = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False]
    assert (after_proof, after_usage_error, after_exception) == (enabled, enabled, enabled)


@pytest.mark.parametrize("rules", sorted(RULE_FAULTS))
def test_prove_refuses_rule_with_unbound_variables(tmp_path, capsys, rules):
    # prove refuses each fault with the lines check-rules prints for it
    path = write(tmp_path, "r.lsp", rules)
    lines = RULE_FAULTS[rules]
    rc = main(["prove", "--rules", path, "--conjecture", write(tmp_path, "c.lsp", "(integerp (f 'integerp 'k1))")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}: {line}" for line in lines]
    assert main(["check-rules", path]) == 1
    assert capsys.readouterr().out.splitlines() == [*lines, f"{len(lines)} violation(s) in 1 rule(s)"]


def test_prove_rule_file_faults(tmp_path, capsys):
    conjecture = write(tmp_path, "c.lsp", "(f a)")
    # a file that does not read is a usage error, one that does not build a violation
    for text, rc, err in [
        ("(def-rp-rule r (equal", 2, "error: "),
        ("(def-rp-rule r (equal (f x) x))\n(rp-attach-sc r no-such-lemma)", 1, "r.lsp: rp-attach-sc: unknown lemma"),
    ]:
        path = write(tmp_path, "r.lsp", text)
        assert main(["prove", "--rules", path, "--conjecture", conjecture]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err


def test_prove_unreadable_conjecture_file(tmp_path, capsys):
    rules_file = write(tmp_path, "r.lsp", SHIPPED_RULESETS["bitand"])
    assert main(["prove", "--rules", rules_file, "--conjecture", str(tmp_path / "missing.lsp")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_prove_bad_conjecture_file(tmp_path, capsys):
    rc = main(
        [
            "prove",
            "--rules",
            write(tmp_path, "r.lsp", SHIPPED_RULESETS["bitand"]),
            "--conjecture",
            write(tmp_path, "c.lsp", "(equal (f a"),
        ]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# bench-tree


def test_bench_tree_csv_shape_and_counts(capsys):
    rc = main(["bench-tree", "--depths", "3", "--modes", "enabled,disabled"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert list(rows[0]) == CSV_COLUMNS + ["status"]
    assert [r["mode"] for r in rows] == ["enabled", "disabled"]
    assert int(rows[0]["rule_attempts"]) == 16
    assert int(rows[1]["rule_attempts"]) == 66
    assert all(r["status"] == "ok" for r in rows)
    assert "# tree depth=3 mode=enabled" in captured.err
    assert captured.err.count("us_per_node=") == 2
    # us_per_call is the same wall time as us_per_node, over the row's rewrite calls
    notes = [dict(f.split("=") for f in line.split()[2:]) for line in captured.err.splitlines() if line.startswith("# tree")]
    assert len(notes) == 2
    for note, row in zip(notes, rows):
        per_call = float(note["us_per_node"]) * int(note["nodes"]) / int(row["rewrite_calls"])
        assert float(note["us_per_call"]) == pytest.approx(per_call, rel=0.01, abs=0.01)


def test_bench_tree_rejects_bad_mode(capsys):
    assert main(["bench-tree", "--depths", "3", "--modes", "sideways"]) == 2


def test_bench_tree_rejects_bad_depth(capsys):
    assert main(["bench-tree", "--depths", "1"]) == 2
    assert main(["bench-tree", "--depths", "6,x"]) == 2
    assert capsys.readouterr().err == "error: depths must be integers >= 2\n" * 2


# ---------------------------------------------------------------------------
# bench-falist


def test_bench_falist_csv_shape(capsys):
    rc = main(["bench-falist", "--sizes", "20", "--modes", "on,off"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert list(rows[0]) == CSV_COLUMNS + ["fa_probes", "fa_node_visits", "status"]
    on, off = rows
    assert on["mode"] == "on" and off["mode"] == "off"
    # shadowed lookups probe once per lookup and never walk the chain
    assert int(on["fa_probes"]) == 20
    assert int(on["fa_node_visits"]) == 0
    assert int(off["fa_probes"]) == 0
    assert int(off["fa_node_visits"]) > 20
    assert "# falist N=20 M=20 mode=on" in captured.err
    assert "build_us_per_entry=" in captured.err


def test_bench_falist_rejects_bad_mode(capsys):
    assert main(["bench-falist", "--sizes", "10", "--modes", "fast"]) == 2


def test_bench_falist_rejects_non_integer_size(capsys):
    assert main(["bench-falist", "--sizes", "10,ten"]) == 2
    assert capsys.readouterr().err == "error: sizes must be integers >= 1\n"


# ---------------------------------------------------------------------------
# shipped demo files stay in sync with the canonical texts


def test_demo_rule_files_match_constants():
    for name, text in SHIPPED_RULESETS.items():
        assert (DEMOS / "rules" / f"{name}.lsp").read_text() == text


def test_demo_conjecture_files_match_constants():
    for name, text in SHIPPED_CONJECTURES.items():
        assert (DEMOS / "conjectures" / f"{name}.lsp").read_text() == text


FALIST_TEXT = (
    "(falist '((key1 . val1) (key2 . val2) (key3 . val3))"
    " (cons (cons 'key1 val1) (cons (cons 'key2 val2) (cons (cons 'key3 val3) 'nil))))"
)
DEMO_LINES = {
    "fast_alists.py": (
        f"read back: {FALIST_TEXT} (same term: True)",
        "linear scan: (cons 'key3 val3) (node visits: 3)",
    ),
    "side_conditions.py": ("with side conditions:   proved = True",),
}


@pytest.mark.parametrize("script", ["fast_alists.py", "side_conditions.py"])
def test_demo_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line in lines for line in DEMO_LINES[script])
