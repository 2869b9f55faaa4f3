"""What each workload sets up before its first request: rule files read
from perfbench/inputs, compiled, and wrapped in Rewriter instances.

This module imports nothing from termrw at import time, so setup_probe.py
can start its clock before the program is imported.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).resolve().parent / "inputs"

# workload -> rule files it compiles; the empty name is the empty rule set
RULE_FILES = {
    "tree-sc": ("tree",),
    "tree-backchain": ("tree-backchain",),
    "falist": ("",),
    "verify": ("arith", "bitand", "tree", "tree-backchain", "plus-truthy"),
}


def import_program():
    """Import termrw from the checkout's own src/, and from nowhere else.

    Exits with an error when src/termrw is missing, so the benchmark never
    measures some other installed copy of the program.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import termrw
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import termrw from {src}: {exc}")
    origin = Path(termrw.__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: termrw was imported from {origin}, not from {src}")
    return termrw


def read_input(name):
    return (INPUTS / name).read_text()


def build(workload):
    """Compile the workload's rule files and construct its rewriters.

    Returns {"rules_compiled": int, "engines": {key: Rewriter}}.  The keys
    are the rule-file name, plus "<name>+metas" on verify, where the
    program's shipped demo metas are registered.  Module attributes are
    looked up at call time so the traced run sees its wrappers.
    """
    from termrw import meta, rewriter, rules

    engines = {}
    compiled = 0
    for name in RULE_FILES[workload]:
        text = read_input(name + ".lsp") if name else ""
        ruleset = rules.build_ruleset(rules.parse_rule_file(text))
        compiled += len(ruleset.rules)
        cfg = rewriter.RewriteConfig(side_conditions_enabled=(workload != "tree-backchain"))
        engines[name] = rewriter.Rewriter(ruleset, cfg=cfg)
        if workload == "verify":
            metas = meta.MetaRegistry(meta.demo_metas())
            engines[name + "+metas"] = rewriter.Rewriter(ruleset, metas=metas, cfg=cfg)
    return {"rules_compiled": compiled, "engines": engines}
