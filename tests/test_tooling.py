"""perfbench's tracer wraps the package's functions by name, and its
engines build rule sets and rewriters through the package's API, so a
change inside the package must not leave perfbench wrapping nothing or
failing to set up; the CLI's imports stay its own; no module grows past
the size where its compile, which perfbench's peak RSS follows, costs a
step more memory; and no name the package defines goes unused."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys
import tokenize

import termrw
from termrw import falist, reader, terms
from termrw.demo import chain_term
from termrw.rewriter import Rewriter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_exist():
    for layer, (owner, attr, _outermost) in _load_perfbench("tracer").WRAPPED.items():
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr}"


def test_perfbench_times_the_reader_itself():
    # the tracer wraps terms.parse_term, which must be the reader's own
    assert terms.parse_term is reader.parse_term


def test_perfbench_sees_each_call_of_the_fast_alist_step(monkeypatch):
    # the tracer wraps falist.fa_acons, fa_get and fa_free, so the loop's
    # step (5b) must reach them through falist's module globals
    calls = dict.fromkeys(("fa_acons", "fa_get", "fa_free"), 0)
    for name in calls:

        def counted(*args, _fn=getattr(falist, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(falist, name, counted)
    rw = Rewriter()
    fal = rw.rewrite(chain_term(3), iff=False)
    assert rw.rewrite(terms.App("hons-get", (terms.Quote("k2"), fal)), iff=False) == reader.parse_term("(cons 'k2 v2)")
    assert rw.rewrite(terms.App("fast-alist-free", (fal,)), iff=False) == fal.args[1]
    assert calls == {"fa_acons": 3, "fa_get": 1, "fa_free": 1}


def test_every_module_stays_under_the_compile_memory_step():
    # CPython 3.11's compile peak grows by about 0.47 MB once a module
    # passes 8,192 tokens, counted as below; perfbench compiles every module
    # on each run, so its peak RSS would show the step
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted((ROOT / "src" / "termrw").glob("*.py")):
        with path.open("rb") as f:
            count = sum(tok.type not in skip for tok in tokenize.tokenize(f.readline))
        assert count < 8192, f"{path.name} has {count} tokens, not under the 8,192-token compile-memory step (CHANGES.md line 896)"


def test_every_exported_name_resolves():
    missing = [name for name in termrw.__all__ if not hasattr(termrw, name)]
    assert missing == []


def test_perfbench_builds_every_workload_engines():
    engines = _load_perfbench("engines")
    for workload, names in engines.RULE_FILES.items():
        built = engines.build(workload)
        assert built["rules_compiled"] >= 2 and set(names) <= set(built["engines"]), workload


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # nor csv and json, which only the bench commands and --stats use.  Only
    # the modules importing the CLI adds count, not those this interpreter's
    # start-up imported already
    code = "import sys; before = set(sys.modules); import termrw.cli; print(sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    added = set(ast.literal_eval(out.stdout))
    assert "termrw.cli" in added and not added & {"dataclasses", "inspect", "csv", "json"}


# top-level names that no code in src/, demos/ or perfbench/ reads, each
# kept for a reason of its own
UNREFERENCED = {
    ("validate", "sample_envs"): "the decoder of the draw stream test_validate pins",
    ("validate", "valid_sc_failure"): "the one-environment wrapper oracle the module documents, which test_validate checks",
    ("demo", "SHIPPED_RULESETS"): "the texts test_cli pins demos/rules to",
    ("demo", "SHIPPED_CONJECTURES"): "the texts test_cli pins demos/conjectures to",
}


def test_every_top_level_name_of_the_package_is_referenced():
    # a reference is a name read, an attribute, an imported name or a string
    # that spells the name (perfbench's tracer wraps by name), anywhere in
    # src/, demos/ or perfbench/, the name's own module included
    defined = set()
    for path in sorted((ROOT / "src" / "termrw").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            defined.update((path.stem, name) for name in names if not name.startswith("__"))
    referenced = set()
    for path in [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unreferenced = {(module, name) for module, name in defined if name not in referenced}
    assert unreferenced == set(UNREFERENCED)
