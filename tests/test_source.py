"""Source hygiene checks on the package modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lieweights"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads; a.b.c reads a."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_name`s the module defines, dunders aside, with their
    line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_private_names_are_used():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    read = set().union(*[read_names(tree) for tree in trees.values()])
    unused = {
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    }
    assert not unused, f"private names no package module reads: {sorted(unused)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    # importing dataclasses loads inspect, and each decoration compiles
    # generated methods: together most of the command line's start-up.
    # exactalg.record stands in for it.
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "dataclasses" not in modules


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lieweights.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# public names no package module reads, each kept for a stated reason;
# a method or property is named Class.name
UNREAD_PUBLIC_NAMES = {
    "weighted_degree": "the paper's filtration of functions by weighted order",
    "module_membership": "the benchmark's tracing wraps it",
    "lift_function": "acceptance criterion 4: lifts of functions to the jet chart",
    "koszul_shift": "acceptance criterion 5: the shift operator on lifts",
    "parse_scalar": "the grammar's scalar entry point",
    "parse_polynomial": "the grammar's polynomial entry point",
    "LiftCombination.materialize": "acceptance criterion 4: a lift combination as a field",
    "GradedLieAlg.axioms_ok": "acceptance criterion 9: the graded Lie algebra axioms",
    "GradedSubalg.closed_under_bracket": "the tangent subalgebra's defining property",
    "JetPoint.flat": "a jet's coordinates on the JetChart",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes without a leading `_`, and the
    methods and properties of those classes as Class.name, with their
    line numbers."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    names[f"{node.name}.{item.name}"] = item.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_public_names_are_read_or_exported():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    read = set().union(*[read_names(tree) for tree in trees.values()])
    read |= exported_names(trees[PACKAGE / "__init__.py"])
    unread = {
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in public_definitions(tree).items()
        if name.rpartition(".")[2] not in read and name not in UNREAD_PUBLIC_NAMES
    }
    assert not unread, f"public names no package module reads: {sorted(unread)}"
    stale = {name for name in UNREAD_PUBLIC_NAMES if name.rpartition(".")[2] in read}
    assert not stale, f"allowlisted names that are read after all: {sorted(stale)}"


# parameters that may default to None, each for a stated reason; any other
# None default would be a second call path that fills the argument in
NONE_DEFAULTS = {
    "cli.load_problem.degree_bound": "an unset flag means the file's value applies",
    "cli.load_problem.samples": "an unset flag means the file's value applies",
    "cli.load_problem.seed": "an unset flag means the file's value applies",
    "cli.main.argv": "None means sys.argv",
    "exactalg.Poly.__init__.terms": "the zero polynomial",
    "exactalg.RatFunc.__init__.den": "a polynomial",
    "lieflt.module_solve.target": "the homogeneous system",
}


def none_defaults(tree: ast.Module, module: str) -> dict[str, int]:
    """Parameters of the module's functions and methods whose default is
    None, as module.function.parameter or module.Class.method.parameter."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, FUNCTIONS):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for arg, default in pairs:
                    if isinstance(default, ast.Constant) and default.value is None:
                        found[f"{prefix}{node.name}.{arg.arg}"] = node.lineno
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, f"{module}.")
    return found


def test_no_parameter_defaults_to_none_outside_the_allowlist():
    found = {}
    for path in PACKAGE.glob("*.py"):
        found.update(none_defaults(ast.parse(path.read_text(), filename=str(path)), path.stem))
    extra = {f"{name} (line {line})" for name, line in found.items() if name not in NONE_DEFAULTS}
    assert not extra, f"parameters defaulting to None: {sorted(extra)}"
    stale = set(NONE_DEFAULTS) - set(found)
    assert not stale, f"allowlisted parameters that no longer default to None: {sorted(stale)}"
