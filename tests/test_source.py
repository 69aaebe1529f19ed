"""Source-level rules for the package."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "isingcusp"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so guards on results must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"


def _imports_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "isingcusp"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "isingcusp"
                                                for a in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    # an import inside a function hides an import cycle between package
    # modules; each module imports the others at its top
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines = sorted({node.lineno for func in functions for node in ast.walk(func)
                    if _imports_package(node)})
    assert not lines, f"package imports inside functions of {path.name} at lines {lines}"


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _assigned(func: ast.FunctionDef, name: str) -> str:
    (value,) = [n.value for n in ast.walk(func) if isinstance(n, ast.Assign)
                and [ast.dump(t) for t in n.targets] == [ast.dump(ast.Name(name, ast.Store()))]]
    return ast.dump(value)


def test_newton_residual_is_defect():
    # _newton writes _defect's series and the SEAM bounds out inline, for
    # speed; the copies must not drift apart
    from isingcusp.selfconsistent import SEAM

    tree = ast.parse((SRC / "selfconsistent.py").read_text(encoding="utf-8"))
    defect, newton = _function(tree, "_defect"), _function(tree, "_newton")
    (ret,) = [n for n in defect.body if isinstance(n, ast.Return)]
    assert _assigned(newton, "s") == _assigned(defect, "s")
    assert _assigned(newton, "d") == ast.dump(ret.value)
    (seam,) = [n for n in ast.walk(newton) if isinstance(n, ast.Compare)
               and ast.dump(n.comparators[0]) == ast.dump(ast.Name("theta", ast.Load()))]
    assert [type(op) for op in seam.ops] == [ast.Lt, ast.Lt]
    assert (ast.literal_eval(seam.left), ast.literal_eval(seam.comparators[1])) == (-SEAM, SEAM)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_finite_guard_has_one_home(path):
    # model.finite is the one check that a scalar is a finite double; the
    # private copies it replaced must not come back
    if path.name == "model.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    math_name = ast.dump(ast.Name("math", ast.Load()))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "isfinite" and ast.dump(node.value) == math_name]
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "math" and any(a.name == "isfinite" for a in node.names)]
    copies = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name in {"_finite", "_unrepresentable", "_check_finite"}]
    assert not calls + imports, f"math.isfinite in {path.name} at lines {calls + imports}"
    assert not copies, f"{path.name} defines {copies}"


# numpy picks these kernels by CPU at run time, and they round differently
# from libm and from one CPU to the next
NUMPY_TRANSCENDENTALS = {"log", "log10", "log1p", "exp", "expm1", "arctanh", "tanh", "power",
                         "geomspace", "logspace"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_printed_transcendentals_come_from_libm(path):
    # every value that reaches stdout takes its logs, atanhs and powers from
    # math (model.logs on floats and columns, model.log_grid); only the oracle's
    # sums keep numpy's vector exp and log, since 2^20 libm calls per
    # enumeration would multiply verify's time
    if path.name == "oracle.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    np_name = ast.dump(ast.Name("np", ast.Load()))
    calls = [f"np.{node.func.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in NUMPY_TRANSCENDENTALS and ast.dump(node.func.value) == np_name]
    imports = [f"{a.name} at line {node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
               for a in node.names if a.name in NUMPY_TRANSCENDENTALS]
    assert not calls + imports, f"numpy transcendentals in {path.name}: {calls + imports}"
