"""The zero-table script against the bundled table, and mpmath at the lines it changed."""

import ast
import importlib.util
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "make_zero_table", ROOT / "scripts" / "make_zero_table.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def table(zero_table_path):
    return Path(zero_table_path).read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "t_lo, t_hi",
    [(14.0, 264.0),     # Euler-Maclaurin route, below RS_T_MIN = 500
     (4114.0, 4164.0)],  # Riemann-Siegel route; holds #3622
)
def test_script_reproduces_the_table(script, table, t_lo, t_hi):
    shipped = [line for line in table if t_lo <= float(line) < t_hi]
    assert [f"{z:.6f}" for z in script.scan(t_lo, t_hi)] == shipped


@pytest.mark.parametrize("index", [3622, 4850])
def test_line_next_to_a_rounding_boundary(table, index):
    # #3622 lies 4.5e-10 above a boundary of the sixth decimal and #4850 1.8e-11
    # below one, closer than a refinement to 1e-9 resolves
    import mpmath

    with mpmath.workdps(20):
        ref = Decimal(mpmath.nstr(mpmath.im(mpmath.zetazero(index)), 20))
    assert table[index - 1] == str(ref.quantize(Decimal("1e-6")))


def test_no_source_file_imports_scipy():
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path
