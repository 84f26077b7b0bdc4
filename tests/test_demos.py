import ast
import importlib
import inspect
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _sppal_imports(tree) -> dict:
    """Local name -> dotted sppal path, from a script's import statements."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sppal":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "sppal"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "sppal"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _attribute_chain(node) -> list | None:
    """[name, attr, attr, ...] of ``name.attr.attr``, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id] + attrs[::-1] if isinstance(node, ast.Name) else None


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:  # a submodule the package does not import itself
            obj = importlib.import_module(".".join(parts[:i + 1]))
    return obj


def test_demos_use_only_existing_sppal_names():
    # demos are not run by the suite; a renamed or deleted sppal name
    # they use must still fail here
    missing = []
    for path in sorted(DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _sppal_imports(tree)
        uses = {(0, dotted) for dotted in bound.values()}
        for node in ast.walk(tree):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in bound:
                uses.add((node.lineno, ".".join([bound[chain[0]]] + chain[1:])))
        for lineno, dotted in sorted(uses):
            try:
                _resolve(dotted)
            except (AttributeError, ImportError):
                missing.append(f"{path.name}:{lineno} {dotted}")
    assert DEMOS.is_dir() and not missing, missing


def test_demo_calls_bind_to_sppal_signatures():
    # each call of an sppal name in the demos must bind to the callee's
    # signature; calls that unpack * or ** arguments are not checked
    bad, checked = [], 0
    for path in sorted(DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _sppal_imports(tree)
        for node in ast.walk(tree):
            chain = _attribute_chain(node.func) if isinstance(node, ast.Call) else None
            if not chain or chain[0] not in bound:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            callee = _resolve(".".join([bound[chain[0]]] + chain[1:]))
            try:
                inspect.signature(callee).bind(*node.args,
                                               **{k.arg: k.value for k in node.keywords})
            except TypeError as e:
                bad.append(f"{path.name}:{node.lineno} {'.'.join(chain)}: {e}")
            checked += 1
    assert checked > 0 and not bad, bad
