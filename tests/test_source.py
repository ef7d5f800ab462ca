"""The package's source itself: no private code that only tests reach, no
private name that two modules define, no import that nothing reads, no
error class that nothing raises, and no function used as a value."""

import ast
from pathlib import Path

import wqsc

SOURCES = sorted(Path(wqsc.__file__).parent.glob("*.py"))


def _read_names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, plain or as an attribute."""
    return {
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    }


def _defined_names(statement: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = (
        statement.targets if isinstance(statement, ast.Assign)
        else [statement.target] if isinstance(statement, ast.AnnAssign) else []
    )
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _private_definitions() -> tuple[list[tuple[str, str, int]], list[set[str]]]:
    """Every private name a module defines at its top level, as (module,
    name, index of the defining statement), and the names that each
    top-level statement of every module reads, walked once per statement."""
    statements = [
        (path.stem, statement)
        for path in SOURCES
        for statement in ast.parse(path.read_text(), str(path)).body
    ]
    private = [
        (module, name, index)
        for index, (module, statement) in enumerate(statements)
        for name in sorted(_defined_names(statement))
        if name.startswith("_") and not name.startswith("__")
    ]
    return private, [_read_names(statement) for _, statement in statements]


def test_every_private_definition_is_used_in_the_package():
    # a private function, class or constant that only tests read is a
    # second path the program never takes, so the tests would check code
    # that no run or analysis uses. Its own statement (say, a recursive
    # call) does not count
    private, reads = _private_definitions()
    assert any(name.isupper() for _, name, _ in private)  # constants too
    unused = [
        f"{module}.{name}"
        for module, name, index in private
        if not any(name in read for at, read in enumerate(reads) if at != index)
    ]
    assert unused == []


def test_no_private_name_is_defined_in_two_modules():
    # two private definitions of one name state one thing twice, and
    # nothing keeps the two copies equal
    private, _ = _private_definitions()
    modules = {}
    for module, name, _ in private:
        modules.setdefault(name, set()).add(module)
    assert {name: sorted(found) for name, found in modules.items() if len(found) > 1} == {}


def _all_names(tree: ast.Module) -> set[str]:
    """The names a module lists in its ``__all__``."""
    return {
        element.value
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__"
                for target in statement.targets)
        for element in ast.walk(statement.value)
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    }


def test_every_import_is_read_or_exported():
    # a name a module imports but never reads, nor lists in its __all__,
    # is left over from code that is gone
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        read = _all_names(tree).union(*(
            _read_names(statement) for statement in tree.body if statement not in imports
        ))
        unused += [
            f"{path.stem}: {alias.name}"
            for node in imports
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []


def test_every_error_class_is_raised():
    # an error class that no module raises guards nothing, and a caller
    # that catches it waits for an error that never comes
    errors = next(path for path in SOURCES if path.stem == "errors")
    classes = {
        node.name
        for node in ast.parse(errors.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name != "WqscError"
    }
    raised = set().union(*(
        _read_names(node.exc)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
    ))
    assert classes and sorted(classes - raised) == []


def _function_values(path: Path) -> list[str]:
    """The lambdas of a module, and every function that some function of
    it defines and then uses other than by calling it (returns it, passes
    it along, stores it), as ``module:line name``."""
    tree = ast.parse(path.read_text(), str(path))
    found = [
        f"{path.stem}:{node.lineno} lambda" for node in ast.walk(tree) if isinstance(node, ast.Lambda)
    ]
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = {
            node.name for node in ast.walk(outer)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not outer
        }
        called = {id(node.func) for node in ast.walk(outer) if isinstance(node, ast.Call)}
        found += [
            f"{path.stem}:{node.lineno} {node.id}"
            for node in ast.walk(outer)
            if isinstance(node, ast.Name) and node.id in inner
            and isinstance(node.ctx, ast.Load) and id(node) not in called
        ]
    return found


def test_no_function_is_returned_or_passed_as_a_value():
    # a result is plain data: a closure or thunk in a result defers work
    # that the caller cannot see, and holds the arrays it reads alive. A
    # nested helper that its function only calls stays
    assert [found for path in SOURCES for found in _function_values(path)] == []
