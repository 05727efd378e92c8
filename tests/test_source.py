"""Source hygiene checks on the package modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from code_lines import code_lines, docstring_lines

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


def attribute_reads(tree: ast.Module) -> set[str]:
    """Every attribute the module loads as x.name, except inside a function
    of the same name: a method that only calls itself on other objects (a
    recursion, or a delegation to a same-named method) is not read."""
    names = set()

    def visit(node, enclosing):
        if isinstance(node, FUNCTIONS):
            enclosing = enclosing | {node.name}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr not in enclosing
        ):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names


def is_read(name: str, read: set[str], attributes: set[str]) -> bool:
    """A function or class is read by name or as an attribute; a method or
    property (Class.name) only as an attribute."""
    owner, _, attr = name.rpartition(".")
    return attr in (attributes if owner else read)


def test_public_names_are_read_or_exported():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    read = set().union(*[read_names(tree) for tree in trees.values()])
    read |= exported_names(trees[PACKAGE / "__init__.py"])
    attributes = set().union(*[attribute_reads(tree) for tree in trees.values()])
    unread = {
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in public_definitions(tree).items()
        if not is_read(name, read, attributes) and name not in UNREAD_PUBLIC_NAMES
    }
    assert not unread, f"public names no package module reads: {sorted(unread)}"
    stale = {name for name in UNREAD_PUBLIC_NAMES if is_read(name, read, attributes)}
    assert not stale, f"allowlisted names that are read after all: {sorted(stale)}"


# parameters that may default to None, each for a stated reason; any other
# None default would be a second call path that fills the argument in
NONE_DEFAULTS = {
    "cli.load_problem.degree_bound": "an unset flag means the file's value applies",
    "cli.load_problem.samples": "an unset flag means the file's value applies",
    "cli.load_problem.seed": "an unset flag means the file's value applies",
    "cli.main.argv": "None means sys.argv",
    "exactalg.Poly.__init__.terms": "the zero polynomial",
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


def test_only_exactalg_references_the_unchecked_poly_constructor():
    # Poly._canonical skips every check; its docstring says only Poly's own
    # arithmetic calls it, and every other module goes through Poly(...),
    # Poly.from_sum or the arithmetic
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "_canonical":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"Poly._canonical referenced outside exactalg: {found}"


def test_only_exactalg_imports_operator_add():
    # tuple(map(add, m1, m2)) is the monomial product, and exactalg's term
    # kernels (mul_terms, derive_into) are the one place that forms it
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                if any(alias.name == "add" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "add"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"operator.add used outside exactalg: {found}"


def test_no_module_keys_anything_by_object_identity():
    # a table keyed by id(...) is a second path beside the by-value one,
    # and an id can be reused once its object is gone
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"id(...) called in the package: {found}"


def test_only_submanifold_restrict_calls_restrict_terms():
    # Submanifold.restrict is the one way to set the fiber variables to
    # zero; it holds the fiber indices, worked out once
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owners[node] = f"{cls.name}.{fn.name}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "restrict_terms" and owners.get(node) != "Submanifold.restrict":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"restrict_terms called outside Submanifold.restrict: {found}"


def test_only_lieflt_does_packed_key_arithmetic():
    # ModuleRows owns the packed-key format: it picks the base, packs and
    # shifts entries and reads markers back; a module reading the place
    # value or encoding or decoding digits itself would be a second owner
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "lieflt.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("place", "enc", "unpack"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"packed-key arithmetic outside lieflt: {found}"


def test_only_lieflt_spells_the_verdicts():
    # lieflt's PASS, FAIL and INCONCLUSIVE are the one verdict vocabulary;
    # a literal elsewhere would be a second spelling that could drift
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "lieflt.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = docstring_lines(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and node.value in ("pass", "fail", "inconclusive")
                and node.lineno not in docstrings
            ):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, f"verdicts spelled outside lieflt: {found}"


def test_only_exactalg_decides_whether_a_quotient_is_a_polynomial():
    # exactalg.quotient alone reduces num/den and picks Poly or RatFunc;
    # every other module divides, so a second RatFunc(...) call or a
    # unit-denominator test would decide it again
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "RatFunc":
                    found.append(f"{path.name}:{node.lineno} RatFunc(...)")
            elif isinstance(node, ast.Attribute) and node.attr == "is_polynomial":
                found.append(f"{path.name}:{node.lineno} .is_polynomial")
    assert not found, f"quotients decided outside exactalg: {found}"


# functions that may carry a process-wide memo, each for a stated reason;
# anything derived from a problem is shared within one run by the object
# that owns it, never cached across runs
MEMOIZED = {
    "osculating._dynkin_words": "the summed word coefficients depend on the order alone, not on a problem",
    "cli._build_parser": "the argument parser depends on no problem, and parsing leaves it as it was",
}
MEMO_DECORATORS = {"lru_cache", "cache"}


def memo_uses(tree: ast.Module, module: str) -> dict[str, int]:
    """Every reference to functools.lru_cache or functools.cache, by the
    qualified name of the function it decorates (module.function, or
    module.Class.method), or module:line when it decorates nothing."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in MEMO_DECORATORS
    }

    def is_memo(node) -> bool:
        if isinstance(node, ast.Attribute):
            return (
                node.attr in MEMO_DECORATORS
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            )
        return isinstance(node, ast.Name) and node.id in aliases

    found, decorating = {}, set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                name = f"{prefix}{node.name}"
                for decorator in node.decorator_list:
                    for sub in ast.walk(decorator):
                        if is_memo(sub):
                            found[name] = node.lineno
                            decorating.add(id(sub))
                visit(node.body, f"{name}.")

    visit(tree.body, f"{module}.")
    for node in ast.walk(tree):
        if is_memo(node) and id(node) not in decorating:
            found[f"{module}:{node.lineno}"] = node.lineno
    return found


def test_no_process_wide_memo_outside_the_allowlist():
    found = {}
    for path in PACKAGE.glob("*.py"):
        found.update(memo_uses(ast.parse(path.read_text(), filename=str(path)), path.stem))
    extra = sorted(name for name in found if name not in MEMOIZED)
    assert not extra, f"functools memo outside the allowlist: {extra}"
    stale = sorted(set(MEMOIZED) - set(found))
    assert not stale, f"allowlisted memos that no longer exist: {stale}"


def test_memo_guard_sees_every_spelling():
    source = (
        "import functools\n"
        "from functools import cache as remembered, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.cache\n"
        "def b(): pass\n"
        "class C:\n"
        "    @remembered\n"
        "    def c(self): pass\n"
        "@lru_cache\n"
        "def d(): pass\n"
        "e = lru_cache(maxsize=4)(len)\n"
        "@functools.cached_property\n"
        "def f(): pass\n"
    )
    assert set(memo_uses(ast.parse(source), "m")) == {"m.a", "m.b", "m.C.c", "m.d", "m:12"}


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """A docstring."""
    y = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    "a one-line docstring"
    z = os.sep
'''


def test_code_lines_counts_no_docstring_comment_or_blank_line():
    # import, def, the two lines of y's string, the two of the return,
    # class and z: 8 of the fixture's 19 lines
    assert code_lines(CODE_LINES_FIXTURE) == 8
    assert code_lines("") == 0
