"""Import discipline inside ``repro.transforms`` (an AST walk, like the
package-level import-graph test in ``test_runtime.py``).

The passes that produce ``rv`` dialects share one home,
``transforms/lowering_kit.py``: they import it, never one another, and
no transform reaches into a sibling's underscore-prefixed names.
"""

import ast
from pathlib import Path

import repro.transforms

TRANSFORMS = Path(repro.transforms.__file__).parent
KIT = "lowering_kit"
RV_PRODUCING = {
    "lower_to_snitch",
    "lower_generic_to_pointer_loops",
    "lower_generic_to_loops",
    "convert_to_riscv",
}


def _sibling_imports(path: Path):
    """``(sibling module, imported name)`` for every import of another
    ``repro.transforms`` module in ``path``, at any nesting depth."""
    siblings = {p.stem for p in path.parent.glob("*.py")} - {path.stem}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (node.module or "").split(".")
        if node.level == 1 and module[0] in siblings:
            for alias in node.names:
                yield module[0], alias.name
        elif node.level == 1 and not node.module:
            # ``from . import sibling`` names the module itself.
            for alias in node.names:
                yield alias.name, None
        elif module[:2] == ["repro", "transforms"] and len(module) > 2:
            for alias in node.names:
                yield module[2], alias.name


def test_no_transform_imports_a_siblings_private_name():
    violations = [
        f"{path.name}: from .{sibling} import {name}"
        for path in sorted(TRANSFORMS.glob("*.py"))
        for sibling, name in _sibling_imports(path)
        if name and name.startswith("_")
    ]
    assert not violations, "\n".join(violations)


def test_rv_producing_passes_share_the_kit_not_each_other():
    for stem in sorted(RV_PRODUCING):
        imported = {
            sibling
            for sibling, _ in _sibling_imports(TRANSFORMS / f"{stem}.py")
        }
        assert KIT in imported, f"{stem} does not use the lowering kit"
        assert not imported & RV_PRODUCING, (
            f"{stem} imports {sorted(imported & RV_PRODUCING)}"
        )
    kit_imports = {
        sibling
        for sibling, _ in _sibling_imports(TRANSFORMS / f"{KIT}.py")
    }
    assert not kit_imports, f"the kit imports {sorted(kit_imports)}"


def test_walker_sees_private_and_nested_imports(tmp_path):
    """The walker itself, on the shape that used to exist
    (``convert_to_riscv`` -> ``_insert_entry_constant``)."""
    (tmp_path / "a.py").write_text(
        "from .b import _private, public\n"
        "def f():\n"
        "    from . import c\n"
        "    from repro.transforms.b import other\n"
    )
    (tmp_path / "b.py").write_text("")
    (tmp_path / "c.py").write_text("")
    assert sorted(_sibling_imports(tmp_path / "a.py"), key=str) == [
        ("b", "_private"),
        ("b", "other"),
        ("b", "public"),
        ("c", None),
    ]
