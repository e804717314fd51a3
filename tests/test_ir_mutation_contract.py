"""Only ``repro.ir`` writes the IR's links (an AST walk, like the
import-discipline test in ``test_transforms_layering.py``).

Incremental verification rests on one rule: everything that changes
attached IR goes through the mutation primitives of ``repro.ir.core``,
which record it (docs/ROBUSTNESS.md, "Verification contract").  So no
file under ``src/repro`` outside ``ir/`` may assign ``.type`` on a
value, store into or delete from ``.attributes[...]``, assign
``._operands`` / ``.uses`` / ``.parent`` / ``.prev_op`` / ``.next_op``,
or call a mutating method on an op's ``._operands`` / ``.uses`` /
``.attributes`` / ``.regions`` / ``.blocks``.  Reading any of them is
fine.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
LINKS = {"type", "_operands", "uses", "parent", "prev_op", "next_op"}
CONTAINERS = {"_operands", "uses", "attributes", "regions", "blocks"}
MUTATORS = {
    "append", "clear", "extend", "insert", "pop", "popitem", "remove",
    "reverse", "setdefault", "sort", "update",
}


def raw_mutations(tree: ast.AST):
    """``(line, what)`` for every raw write to the IR's links in
    ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in CONTAINERS
            ):
                yield (
                    node.lineno,
                    f".{node.func.value.attr}.{node.func.attr}()",
                )
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and target.attr in LINKS:
                yield target.lineno, f".{target.attr} ="
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr in CONTAINERS
            ):
                yield target.lineno, f".{target.value.attr}[...] ="


def test_only_repro_ir_writes_the_links():
    violations = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "ir"
        for line, what in raw_mutations(ast.parse(path.read_text()))
    ]
    assert not violations, (
        "mutate IR through repro.ir.core (set_type, set_attribute, "
        "detach_region, ...):\n" + "\n".join(violations)
    )


def test_walker_sees_the_shapes_that_used_to_exist():
    """The walker itself, on what ``register_allocator``,
    ``unroll_and_jam`` and ``convert_linalg_to_memref_stream`` did."""
    tree = ast.parse(
        "value.type = type(vtype)(name)\n"
        "op.attributes['bounds'] = DenseIntAttr(bounds)\n"
        "del op.attributes['inits']\n"
        "op.regions.remove(body)\n"
        "body.parent = None\n"
        "region.blocks.clear()\n"
        "a.prev_op, b.next_op = b, a\n"
        "op._operands[0] = value\n"
        "value.uses.append(use)\n"
        "kind = value.type\n"
        "count = len(value.uses) + len(op._operands)\n"
        "previous = op.prev_op\n"
    )
    assert sorted(raw_mutations(tree)) == [
        (1, ".type ="),
        (2, ".attributes[...] ="),
        (3, ".attributes[...] ="),
        (4, ".regions.remove()"),
        (5, ".parent ="),
        (6, ".blocks.clear()"),
        (7, ".next_op ="),
        (7, ".prev_op ="),
        (8, "._operands[...] ="),
        (9, ".uses.append()"),
    ]
