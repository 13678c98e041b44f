"""Every top-level member and every option of ``src/apsflow`` serves a command or the benchmark.

The package's members are read with ``ast``, nothing is imported.  A member
is reached when a chain of references inside ``src/apsflow`` leads to it
from a ``cli`` command or from a name that ``perfbench/`` uses (an
identifier of its source, or a string literal that is one, as in
``getattr(module, "eigh")``).  A member that only the tests reach belongs in
the tests, as an oracle in ``conftest.py``; one that the package keeps on
purpose goes into ``DECLARED`` with its reason, where a review sees it.

An option, a parameter with a default, is used when some call in
``src/apsflow`` or ``perfbench/`` passes it, by keyword or by position.  One
that only the tests set belongs in the code as the constant it defaults to;
one kept on purpose goes into ``DECLARED_OPTIONS`` with its reason.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "apsflow"

# members no command or benchmark reaches, kept on purpose: (module, name) -> reason
DECLARED = {
    ("families", "write_sample_series"): "writes the sample-file format that custom-samples reads",
    ("families", "matrix_to_pairs"): "writes the (re, im) pairs that configs and sample files hold",
    ("evolution", "propagator_from_payload"): "reads the propagator format that export writes",
    ("evolution", "read_propagator"): "reads the propagator files that export writes",
}

# options no call in the package or the benchmark passes, kept on purpose:
# (function, parameter) -> reason
DECLARED_OPTIONS = {
    ("propagate", "steps"): "perfbench/tracing.py reads it by name; ROADMAP item 1 removes it",
    ("rank_kernel", "tau_rank"): "rank_kernel stays in the package only for perfbench",
}


def _members(tree):
    """Top-level functions, classes and assigned names, each with its node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _references(trees, members):
    """``(module, name) -> {(module, name)}``: the members each member's source names."""
    graph = {}
    for module, tree in trees.items():
        names, modules = {}, {}  # local name -> member, local name -> sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is not None:
                        names[local] = (node.module, alias.name)
                    elif alias.name in trees:
                        modules[local] = alias.name
                    else:
                        names[local] = ("__init__", alias.name)
        for name, node in members[module].items():
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in members[module]:
                        refs.add((module, sub.id))
                    elif sub.id in names:
                        refs.add(names[sub.id])
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    if sub.value.id in modules:
                        refs.add((modules[sub.value.id], sub.attr))
            graph[(module, name)] = refs
    return graph


def _benchmark_names():
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                names.add(tok.string)
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except ValueError:
                    continue
                if isinstance(value, str) and value.isidentifier():
                    names.add(value)
    return names


def _is_command(node):
    """A function under ``@main.command()`` or ``@click.group()``."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _unreached():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    members = {module: _members(tree) for module, tree in trees.items()}
    graph = _references(trees, members)
    benchmark = _benchmark_names()
    todo = [("cli", name) for name, node in members["cli"].items() if _is_command(node)]
    todo += [key for key in graph if key[1] in benchmark]
    reached = set()
    while todo:
        key = todo.pop()
        if key in graph and key not in reached:
            reached.add(key)
            todo.extend(graph[key])
    return set(graph) - reached


def test_every_member_serves_a_command_the_benchmark_or_a_declared_reason():
    unreached = _unreached()
    assert sorted(unreached - set(DECLARED)) == [], "only tests reach these: move them to tests/"
    assert sorted(set(DECLARED) - unreached) == [], "these are reached: drop them from DECLARED"


def _functions(tree):
    """``(qualified name, call names, node)`` of each function; a method is ``Class.name``.

    A call reaches a function by its name, ``__init__`` also by its class's
    name.  Calls are matched by name alone, so a call of another function
    of the same name counts too: the test can miss an option, never flag a
    used one.
    """
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    methods[sub] = node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            owner = methods.get(node)
            if owner is None:
                yield node.name, {node.name}, node
            else:
                names = {node.name, owner} if node.name == "__init__" else {node.name}
                yield f"{owner}.{node.name}", names, node


def _options(node):
    """``(position or None, name)`` of each defaulted parameter; ``self`` takes no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(args.defaults)
    out = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, position, name):
    if any(k.arg in (name, None) for k in call.keywords):  # by name, or through **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_options():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    calls = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in PACKAGE.glob("*.py"):
        for qualified, names, node in _functions(ast.parse(path.read_text())):
            reaching = [c for n in names for c in calls.get(n, ())]
            for position, name in _options(node):
                if not any(_passes(c, position, name) for c in reaching):
                    unset.add((qualified, name))
    return unset


def test_every_option_is_passed_by_the_package_the_benchmark_or_a_declared_reason():
    unset = _unset_options()
    assert sorted(unset - set(DECLARED_OPTIONS)) == [], "only tests set these: make them constants"
    assert sorted(set(DECLARED_OPTIONS) - unset) == [], (
        "these are passed: drop them from DECLARED_OPTIONS"
    )
