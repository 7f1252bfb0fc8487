"""Every module-level function and class in ``src/dsmcf``, and every method,
is reached from a command, with no exceptions: the pointwise reference the
tests compare against lives in ``tests/pointwise.py``, and an error class no
command raises or catches is dead code like any other.  So is a name the
package exports that no command reaches.

The walk starts at ``cli.main`` (every command) and at
``snapshots.load_trajectory`` (the reader behind the benchmark's
post-processing).  From each reached definition it follows the names the
definition's source mentions: module-level names of its own module, names
imported from sibling modules, and ``module.attribute`` through sibling
modules imported with ``from . import``.  A method counts as its own
definition: it is reached when its class is and some reached definition
names it as an attribute (``x.name``, on any object), or when it is a
dunder, which Python calls for the class.  Local names that shadow a
module-level name, and attributes of other objects that share a method's
name, make the walk reach more, never less, so the guard cannot fail
falsely.

The same walk keeps the layering: ``cli`` is the one module that runs
flows, and the experiments only read the trajectories it hands them.  And
every defaulted parameter of a definition a command reaches is passed by
some call in ``src``: a default no command overrides is a knob only tests
turn, such as a tolerance that changes a check's verdict.
"""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dsmcf"
ROOTS = [("cli", "main"), ("snapshots", "load_trajectory")]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def method_name(key) -> str:
    return key[1].rpartition(".")[2]


class Package:
    """Module-level definitions of the package and the names they mention.

    Methods are keyed ``(module, "Class.method")``; a class's own entry
    stands for its body without its methods.
    """

    def __init__(self, root: Path):
        self.defs = {}  # (module, name) -> defining statement
        self.methods = {}  # (module, class) -> its method keys
        self.modules = {}  # module -> {local name: sibling module}
        self.imported = {}  # module -> {local name: (sibling module, name)}
        for path in sorted(root.glob("*.py")):
            module = path.stem
            self.modules[module], self.imported[module] = {}, {}
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                self._add(module, node)

    def _add(self, module, node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            self.defs[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                keys = [(module, f"{node.name}.{m.name}") for m in methods]
                self.methods[module, node.name] = keys
                self.defs.update(zip(keys, methods))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.defs[module, target.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    self.modules[module][local] = alias.name
                else:
                    self.imported[module][local] = (node.module, alias.name)

    def nodes(self, key):
        """Every AST node of a definition; a class's methods are left out."""
        top = self.defs[key]
        if not isinstance(top, ast.ClassDef):
            yield from ast.walk(top)
            return
        parts = top.bases + top.keywords + top.decorator_list
        parts += [item for item in top.body if not isinstance(item, ast.FunctionDef)]
        for part in parts:
            yield from ast.walk(part)

    def mentions(self, key):
        module = key[0]
        for node in self.nodes(key):
            if isinstance(node, ast.Name):
                if (module, node.id) in self.defs:
                    yield module, node.id
                elif node.id in self.imported[module]:
                    yield self.imported[module][node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                sibling = self.modules[module].get(node.value.id)
                if sibling is not None:
                    yield sibling, node.attr

    def reached(self, roots) -> set:
        seen, todo = set(), list(roots)
        attributes, methods = set(), []  # names used as x.name; methods of reached classes
        while todo:
            key = todo.pop()
            if key not in seen and key in self.defs:
                seen.add(key)
                todo.extend(self.mentions(key))
                methods.extend(self.methods.get(key, []))
                attributes.update(
                    node.attr for node in self.nodes(key) if isinstance(node, ast.Attribute)
                )
            if not todo:
                todo = [
                    key
                    for key in methods
                    if key not in seen
                    and (is_dunder(method_name(key)) or method_name(key) in attributes)
                ]
        return seen

    def functions_and_classes(self) -> set:
        kinds = (ast.FunctionDef, ast.ClassDef)
        return {key for key, node in self.defs.items() if isinstance(node, kinds)}


def passed_arguments(root: Path) -> dict:
    """Called name -> [most positional arguments, keyword names] over every
    call in the package, matched by name like the walk: ``f(...)`` and
    ``x.f(...)`` both count for ``f``.  ``*args`` passes every position and
    ``**kwargs`` (keyword None) every keyword; a name used as a value may be
    called under another name, so it counts as passing everything."""
    passed = {}

    def add(name, positional, keywords):
        entry = passed.setdefault(name, [0, set()])
        entry[0] = max(entry[0], positional)
        entry[1] |= keywords

    for path in sorted(root.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                positional = math.inf if starred else len(node.args)
                add(name, positional, {kw.arg for kw in node.keywords})
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                add(node.id if isinstance(node, ast.Name) else node.attr, math.inf, {None})
    return passed


def defaulted_parameters(key, node: ast.FunctionDef):
    """(call name, [(position in a call or None, parameter)]) of a function;
    a method's position skips its receiver, and ``__init__`` is called by
    its class name."""
    owner, _, name = key[1].rpartition(".")
    static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
    receiver = 1 if owner and not static else 0
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params = [(i - receiver, arg.arg) for i, arg in enumerate(positional) if i >= first]
    params += [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return (owner if name == "__init__" else name), params


def test_src_holds_no_code_that_only_tests_use():
    package = Package(SRC)
    orphans = package.functions_and_classes() - package.reached(ROOTS)
    assert not orphans, (
        f"no command reaches {sorted('.'.join(key) for key in orphans)}; "
        "delete them, or move what only tests use into the tests"
    )


def test_package_exports_only_what_commands_reach():
    package = Package(SRC)
    exports = set(package.imported["__init__"].values())
    unreached = sorted(".".join(key) for key in exports - package.reached(ROOTS))
    assert not unreached, f"dsmcf exports {unreached}, which no command reaches"


def test_src_passes_every_parameter_it_declares():
    """``cli.main(argv)`` is the entry point tests and the shell call."""
    package = Package(SRC)
    passed = passed_arguments(SRC)
    knobs = []
    for key in sorted(package.reached(ROOTS) - {("cli", "main")}):
        node = package.defs[key]
        if not isinstance(node, ast.FunctionDef):
            continue
        name, params = defaulted_parameters(key, node)
        positional, keywords = passed.get(name, (0, set()))
        knobs += [
            f"{'.'.join(key)}({param})"
            for index, param in params
            if not (
                (index is not None and positional > index)
                or param in keywords
                or None in keywords
            )
        ]
    assert not knobs, (
        f"no call in src passes {knobs}; make each a constant of its function, "
        "or delete it"
    )


def test_only_cli_runs_flows():
    package = Package(SRC)
    runners = sorted(
        ".".join(key)
        for key in package.defs
        if key[0] != "cli" and ("flow", "run") in set(package.mentions(key))
    )
    assert not runners, f"{runners} call flow.run; only cli runs flows"
