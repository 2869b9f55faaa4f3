"""No function in the package recurses on the Python stack.

Walks whose depth follows a term, be it input or a rule's own formula, run
through terms.trampoline or an explicit stack, so depth costs heap, not
stack.  The test builds the package's call graph and fails on any cycle in
it, a function calling itself included, outside an allowlist of functions
whose recursion a depth argument bounds.

Calling a generator function runs none of its body, so a call of one is no
stack frame and adds no edge: that is how trampolined calls are told apart.
The graph resolves plain names (nested functions, then module functions,
then names imported from a package module), self.method, and
module.function through `from . import module`.  Implicit calls, such as
operators, __eq__, __hash__ and __repr__, are not in it: for hashing and
==, test_terms.py's test_deep_fresh_terms_hash_and_compare_without_recursion
is the guard, hashing and comparing 100,000-deep terms that have no hash yet.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "termrw"

ALLOWED = {
    "validate.py:random_term": "bounded by its depth argument",
    "rewriter.py:Rewriter._settled": "bounded by its height argument",
}


def _own_nodes(fn):
    """The nodes of fn's body, without those of functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(child)


class _Function:
    def __init__(self, key, node, cls, scope):
        self.key = key
        self.node = node
        self.cls = cls  # (module, class name) of the method fn is, or is nested in
        self.scope = scope  # the enclosing functions, innermost first
        self.nested = {}
        self.generator = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(node))


def _call_graph(sources):
    """{function key: set of keys it calls} for modules given as
    {file name: source text}."""
    functions = []
    top = {}  # module -> {name: _Function}
    methods = {}  # (module, class) -> {name: _Function}
    imported = {}  # module -> {alias: (module, name or None for a module)}

    def visit(node, module, prefix, cls, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                f = _Function(f"{module}:{prefix}{child.name}", child, cls, scope)
                functions.append(f)
                if scope:
                    scope[0].nested[child.name] = f
                elif cls is not None and prefix == cls[1] + ".":
                    methods.setdefault(cls, {})[child.name] = f
                else:
                    top.setdefault(module, {})[child.name] = f
                visit(child, module, f"{prefix}{child.name}.", cls, [f] + scope)
            elif isinstance(child, ast.ClassDef) and not scope:
                visit(child, module, f"{prefix}{child.name}.", (module, child.name), scope)
            else:
                visit(child, module, prefix, cls, scope)

    for module, text in sources.items():
        tree = ast.parse(text)
        aliases = imported.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = (f"{a.name}.py", None)
                    else:
                        aliases[a.asname or a.name] = (f"{node.module}.py", a.name)
        visit(tree, module, "", None, [])

    def resolve(f, call):
        module = f.key.split(":")[0]
        func = call.func
        if isinstance(func, ast.Name):
            for enclosing in f.scope:
                if func.id in enclosing.nested:
                    return enclosing.nested[func.id]
            if func.id in f.nested:
                return f.nested[func.id]
            if func.id in top.get(module, {}):
                return top[module][func.id]
            target = imported[module].get(func.id)
            if target and target[1] is not None:
                return top.get(target[0], {}).get(target[1])
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "self" and f.cls is not None:
                return methods.get(f.cls, {}).get(func.attr)
            target = imported[module].get(func.value.id)
            if target and target[1] is None:
                return top.get(target[0], {}).get(func.attr)
        return None

    graph = {}
    for f in functions:
        callees = graph[f.key] = set()
        for node in _own_nodes(f.node):
            if isinstance(node, ast.Call):
                g = resolve(f, node)
                if g is not None and not g.generator:
                    callees.add(g.key)
    return graph


def _on_cycles(graph):
    """The functions that can reach themselves through the graph."""
    found = set()
    for start in graph:
        seen = set()
        stack = list(graph[start])
        while stack:
            key = stack.pop()
            if key == start:
                found.add(start)
                break
            if key not in seen:
                seen.add(key)
                stack.extend(graph.get(key, ()))
    return found


def test_call_graph_finds_mutual_recursion_but_not_trampolined_calls():
    sources = {
        "a.py": (
            "from .b import g\n"
            "from . import b as mod\n"
            "def f(t):\n    return g(t)\n"
            "def walk(t):\n    return mod.h(t)\n"
            "def step(t):\n    return gen(t)\n"
            "def gen(t):\n    return (yield step(t))\n"
            "class C:\n"
            "    def m(self, t):\n"
            "        def inner(u):\n            return self.m(u)\n"
            "        return inner(t)\n"
        ),
        "b.py": "from .a import f, walk\ndef g(t):\n    return f(t)\ndef h(t):\n    return walk(t)\n",
    }
    assert _on_cycles(_call_graph(sources)) == {"a.py:f", "b.py:g", "a.py:walk", "b.py:h", "a.py:C.m", "a.py:C.m.inner"}


def test_no_function_recurses_outside_the_allowlist():
    found = _on_cycles(_call_graph({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}))
    assert sorted(found - ALLOWED.keys()) == [], "recursion on term depth: use terms.trampoline or an explicit stack"
    assert sorted(ALLOWED.keys() - found) == [], "stale allowlist entries"
