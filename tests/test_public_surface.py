"""Every public name has a caller in the package: a name in a module's
__all__ must be referenced by another module of src/lvr_lab, or by its
own module beyond its definition.  So must every public method, every
single-underscore method, and every module-level function and class,
private ones included.  A name only tests call is surface the tests keep
alive for nobody."""

import ast
import importlib
import re
from pathlib import Path

import lvr_lab

SRC = Path(lvr_lab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def public_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def referenced_names(tree: ast.Module) -> set:
    """Names loaded, imported or taken as attributes anywhere in the module;
    a def, a class statement or an __all__ string is not a reference."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: referenced_names(tree) for module, tree in trees.items()}
    every_ref = set().union(*refs.values())
    orphans = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_names(tree)
        if name != "__version__" and name not in every_ref
    ]
    assert orphans == []


def public_methods(tree: ast.Module) -> list:
    """(class, method) for each def without a leading underscore in the
    body of a class the module lists in __all__."""
    names = set(public_names(tree))
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in names
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


def test_every_public_method_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    attrs = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    orphans = [
        f"{module}.{cls}.{method}"
        for module, tree in trees.items()
        for cls, method in public_methods(tree)
        if method not in attrs
    ]
    assert orphans == []


def test_every_module_level_definition_has_a_caller_in_the_package():
    """The module-level twin of the method check: each function and class a
    module of src/lvr_lab defines, private ones too, is referenced by some
    module of src/lvr_lab outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    statements = [(node, referenced_names(node)) for tree in trees.values() for node in tree.body]
    orphans = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in refs for other, refs in statements if other is not node)
    ]
    assert orphans == []


def test_every_private_method_has_a_caller_in_the_package():
    """The single-underscore twin of the public-method check, over every class
    of src/lvr_lab: each such method is taken as an attribute somewhere in
    src/lvr_lab outside its own body, so a method that only calls itself has
    no caller.  Dunder methods are called by the language and are skipped."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    attrs = [
        (node, node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    orphans = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not (
                    isinstance(item, ast.FunctionDef)
                    and item.name.startswith("_")
                    and not item.name.startswith("__")
                ):
                    continue
                own = {id(node) for node in ast.walk(item)}
                if not any(name == item.name and id(node) not in own for node, name in attrs):
                    orphans.append(f"{module}.{cls.name}.{item.name}")
    assert orphans == []


def readme_citations() -> list:
    """(module, name) for each backticked `module.name` in README.md whose
    module is one of src/lvr_lab's."""
    modules = {path.stem for path in SRC.glob("*.py")}
    cited = set(re.findall(r"`(\w+)\.(\w+)", README.read_text()))
    return sorted((module, name) for module, name in cited if module in modules)


def test_every_name_the_readme_cites_exists():
    """The README names private helpers as the home of each technique; a
    rename that leaves the README behind points readers at nothing."""
    missing = [
        f"{module}.{name}"
        for module, name in readme_citations()
        if not hasattr(importlib.import_module(f"lvr_lab.{module}"), name)
    ]
    assert readme_citations() and missing == []


def benchmark_caches() -> list:
    """The (module, name) pairs of the CACHES tuple in perfbench/spans.py,
    read from its source: the benchmark calls cache_info() on each one in
    every run."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CACHES" for t in node.targets
        ):
            return [tuple(ast.literal_eval(elt)) for elt in node.value.elts]
    return []


def test_every_cache_the_benchmark_counts_exists():
    """A rename or an uncached rewrite of one of these turns every benchmark
    run into a failure; this test fails first."""
    missing = [
        f"{module}.{name}"
        for module, name in benchmark_caches()
        if not hasattr(getattr(importlib.import_module(f"lvr_lab.{module}"), name, None), "cache_info")
    ]
    assert benchmark_caches() and missing == []
