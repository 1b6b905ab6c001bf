import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fredstab

EXPORTING = [
    module for module in (importlib.import_module(f"fredstab.{m.name}")
                          for m in pkgutil.iter_modules(fredstab.__path__))
    if hasattr(module, "__all__")]

PACKAGE = Path(fredstab.__file__).parent
TESTS = Path(__file__).parent
ACCEPTANCE = TESTS / "test_acceptance.py"

# Public names that only the test suite calls, each as the independent
# reference for a production path.
TEST_ORACLES = {
    "sobolev_norm",                 # per-sample norm of simulate's norm table
}


def _names(node) -> set:
    """Identifiers a node reads: bare names and attribute names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _package_uses() -> dict:
    """Name -> the top-level definitions (or None) of package code that use it.

    Imports and string constants are not uses, so neither __init__'s
    re-exports nor __all__ nor a docstring keep a name alive.
    """
    uses: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for name in _names(stmt):
                uses.setdefault(name, set()).add(owner)
    return uses


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert len(names) == len(set(names)), f"duplicate names in {module.__name__}.__all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_every_exported_name_is_used():
    # a public name stays only while package code outside its own
    # definition, an acceptance criterion or a named test oracle uses it
    uses = _package_uses()
    acceptance = _names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unused = sorted(
        f"{module.__name__}.{name}" for module in EXPORTING for name in module.__all__
        if not (uses.get(name, set()) - {name}) and name not in acceptance
        and name not in TEST_ORACLES)
    assert not unused, f"exported but unused: {unused}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in _names(decorator) for decorator in cls.decorator_list)


def _attribute_reads(tree) -> dict:
    """Attribute name -> the top-level definitions of tree that read it as x.name."""
    reads: dict = {}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(getattr(stmt, "name", None))
    return reads


def test_every_dataclass_field_is_read():
    # a field stays only while package code outside its own class or a
    # test reads it as an attribute; the match is by name, so a field that
    # shares its name with a read attribute elsewhere passes
    fields, package_reads = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields += [(cls.name, stmt.target.id) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                   for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for name, owners in _attribute_reads(tree).items():
            package_reads.setdefault(name, set()).update(owners)
    test_reads = set()
    for path in sorted(TESTS.glob("*.py")):
        test_reads |= set(_attribute_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert fields
    unread = [f"{cls}.{name}" for cls, name in fields
              if not (package_reads.get(name, set()) - {cls}) and name not in test_reads]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


# The stages build C only in the kernel, and every gain route reads it
# there (the fixed-point route sweeps the kernel's C); only the dense
# transform oracle keeps its own, as an independent reference.
CAUCHY_BUILDERS = {"BranchKernel", "transform_matrix"}


# Only the Cauchy builder forms a full outer difference x[:, None] - x[None, :]
# (either order), an N x N table; every other pairwise pass takes the rows
# i:j of spectral_core.row_blocks.
OUTER_DIFFERENCE_OWNERS = {"cauchy_system_matrix"}


def _axes(node):
    """(first, second) of a two-axis subscript x[first, second], else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 2):
        return tuple(node.slice.elts)
    return None


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_full(node) -> bool:
    return (isinstance(node, ast.Slice) and node.lower is None and node.upper is None
            and node.step is None)


def _spread(node):
    """'column' for x[:, None], 'row' for x[None, :], None for anything else."""
    axes = _axes(node)
    if axes and _is_full(axes[0]) and _is_none(axes[1]):
        return "column"
    if axes and _is_none(axes[0]) and _is_full(axes[1]):
        return "row"
    return None


def _outer_difference(node) -> bool:
    """True for a[:, None] - b[None, :] or a[None, :] - b[:, None]."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and {_spread(node.left), _spread(node.right)} == {"column", "row"})


def _row_block(node) -> bool:
    """True for x[i:j, None], the rows i:j of a vector spread over a block's columns."""
    axes = _axes(node)
    return bool(axes and isinstance(axes[0], ast.Slice) and axes[0].lower is not None
                and axes[0].upper is not None and _is_none(axes[1]))


def _definitions():
    """(name, node) of every top-level statement of the package; name None for module code."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            yield getattr(stmt, "name", None), stmt


def _owners(predicate) -> set:
    """Top-level definitions of the package with a node matching predicate."""
    return {name for name, stmt in _definitions()
            if any(predicate(node) for node in ast.walk(stmt))}


def test_outer_difference_guard_sees_both_orders():
    def found(source):
        return any(_outer_difference(n) for n in ast.walk(ast.parse(source)))
    assert found("ev[:, None] - ev[None, :]") and found("ev[None, :] - ev[:, None]")
    assert not found("ev[i:j, None] - ev[None, :]")
    assert not found("ev[:, None] * ev[None, :]") and not found("ev[:, None] - ev")


def test_full_outer_difference_only_in_the_cauchy_builder():
    assert _owners(_outer_difference) == OUTER_DIFFERENCE_OWNERS


def test_row_blocks_are_the_only_blocking():
    # every pass that slices rows i:j of a vector takes them from row_blocks
    blocked = {name: "row_blocks" in _names(stmt) for name, stmt in _definitions()
               if any(_row_block(node) for node in ast.walk(stmt))}
    assert blocked and all(blocked.values()), blocked


def _negates_eigenvalues(node) -> bool:
    """True for -x where x reads eigenvalues: the spectrum of the weights w."""
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and "eigenvalues" in _names(node.operand))


def test_cauchy_matrix_built_only_by_the_kernel():
    builders = _package_uses().get("cauchy_system_matrix", set()) - {"cauchy_system_matrix"}
    assert builders == CAUCHY_BUILDERS


def test_weights_taken_only_by_the_kernel():
    # w = C^-T 1 is the closed-form product of the negated spectrum
    assert _owners(_negates_eigenvalues) == {"BranchKernel"}


def _truncating_open(node) -> bool:
    """True for open(path, mode), io.open(path, mode) or path.open(mode) with a mode that
    truncates ("w...") or is not a literal, and for pathlib's write_text / write_bytes."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        owner = _names(func.value)
        if "os" in owner:
            return False            # flags, not a mode: the O_TRUNC guard sees them
        at = 1 if owner & {"io", "builtins"} else 0
    else:
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or "w" in m.value for m in modes)


def _names_truncation(node) -> bool:
    """True for a name, an attribute or an import of O_TRUNC."""
    return ((isinstance(node, (ast.Name, ast.Attribute)) and "O_TRUNC" in _names(node))
            or (isinstance(node, ast.alias) and node.name == "O_TRUNC"))


def test_truncation_guard_sees_every_form():
    def found(source):
        return any(_truncating_open(n) or _names_truncation(n)
                   for n in ast.walk(ast.parse(source)))
    for source in ('open(p, "w")', 'open(p, mode="wb")', 'io.open(p, "w+")', "open(p, m)",
                   'Path(p).open("w")', 'p.write_text("x")', "os.open(p, os.O_TRUNC)",
                   "from os import O_TRUNC"):
        assert found(source), source
    assert not found('open(p)') and not found('open(p, "rb")') and not found('open(p, "ab")')
    assert not found('Path(p).open()') and not found('io.open(p, "r")')
    assert not found("os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)")
    assert not found('os.fdopen(fd, "wb")')


def test_no_writer_truncates_a_path():
    # every artifact is written over in place (jsonio.overwrite) and cut to
    # its new length on close; a file truncated to zero is queued for
    # writeback on close, and its next unlink or truncation waits for it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _truncating_open(node) or _names_truncation(node)]
    assert not found, found


def test_diagnostics_draws_nothing():
    # the compactness proxy is a deterministic Lanczos estimate: no power
    # iteration, its step count or seed, and no numpy.random in diagnostics
    tree = ast.parse((PACKAGE / "diagnostics.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    names = _names(tree)
    assert not [m for m in imported if m.startswith("numpy.random")]
    assert "random" not in names
    assert not [name for name in names if name.startswith("POWER_")]
