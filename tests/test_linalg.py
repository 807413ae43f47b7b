"""Dense solver layer: frozen hand oracles plus cross-checks against numpy."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrcon, dtrtrs

from oracles import least_squares, leverage, residual_variance, ridge_solve, spd_solve

from cpreg.linalg import (
    NumericalError,
    cholesky_factor,
    cholesky_solve,
    reciprocal_condition,
    triangular_solve,
)
from cpreg.residuals import ridge_residuals

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cpreg"

# Exact rational elimination by hand for the 2x2 ridge system with
# design rows (1,1),(1,2),(1,3), responses (1,2,3), ridge 0.01:
# normal matrix [[3.01, 6], [6, 14.01]], rhs [6, 14], det = 6.1701.
RIDGE_3OBS_COEF = (200.0 / 20567.0, 61400.0 / 61701.0)


def test_ridge_solve_frozen_oracle():
    design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    coef = ridge_solve(design, np.array([1.0, 2.0, 3.0]), 0.01)
    assert coef == pytest.approx(RIDGE_3OBS_COEF, rel=1e-14)


def test_ridge_solve_matches_normal_equations():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, k = rng.integers(2, 12), rng.integers(1, 5)
        design = rng.standard_normal((n, k))
        y = rng.standard_normal(n)
        a = float(rng.uniform(1e-3, 1.0))
        direct = np.linalg.solve(design.T @ design + a * np.eye(k), design.T @ y)
        assert ridge_solve(design, y, a) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_least_squares_exact_line():
    # Responses (1,3,2,5) at x = 1..4: slope 1.1, intercept 0 exactly.
    design = np.column_stack((np.ones(4), np.arange(1.0, 5.0)))
    coef = least_squares(design, np.array([1.0, 3.0, 2.0, 5.0]))
    assert coef == pytest.approx((0.0, 1.1), abs=1e-14)


def test_least_squares_matches_lstsq():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = rng.integers(1, 4)
        n = rng.integers(k + 2, 15)  # keep the system overdetermined
        design = np.column_stack((np.ones(n), rng.standard_normal((n, k))))
        y = rng.standard_normal(n)
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        assert least_squares(design, y) == pytest.approx(ref, abs=1e-10)


def test_spd_solve_vector_and_matrix_rhs():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    gram = m @ m.T + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    bb = rng.standard_normal((4, 2))
    assert spd_solve(gram, b) == pytest.approx(np.linalg.solve(gram, b), rel=1e-12)
    assert spd_solve(gram, bb) == pytest.approx(np.linalg.solve(gram, bb), rel=1e-12)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NumericalError):
        spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


def test_residual_variance_and_leverage_hand_instance():
    """Five collinear-free points; reference computed from explicit formulas."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    design = np.column_stack((np.ones(5), x))
    y = np.array([1.0, 1.5, 3.0, 2.5, 6.0])
    coef = least_squares(design, y)
    resid = y - design @ coef
    # residual variance normalizes by rows - columns
    assert residual_variance(design, y, coef) == pytest.approx(resid @ resid / 3.0, rel=1e-12)
    # leverage at a new point matches the quadratic form with the inverse gram
    z = np.array([1.0, 4.0])
    direct = z @ np.linalg.solve(design.T @ design, z)
    assert leverage(design, z) == pytest.approx(direct, rel=1e-12)


def test_leverage_nonnegative_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        design = rng.standard_normal((8, 3))
        z = rng.standard_normal(3)
        assert leverage(design, z) >= 0.0


def test_cholesky_kernel_is_bitwise_scipy():
    # The kernel calls the LAPACK routines under cho_factor/cho_solve without
    # their wrappers, so every factor and solve is bit for bit theirs; the
    # golden ledger hashes of the predictors rest on this.
    rng = np.random.default_rng(8)
    for order in range(1, 102):
        m = rng.standard_normal((order + 3, order))
        gram = m.T @ m + 0.01 * np.eye(order)
        factor = cholesky_factor(gram)
        ref = cho_factor(gram, lower=True, check_finite=False)
        assert np.array_equal(np.tril(factor), np.tril(ref[0])), order
        for rhs in (rng.standard_normal(order), rng.standard_normal((order, 3))):
            got = cholesky_solve(factor, rhs)
            assert got.shape == rhs.shape
            assert np.array_equal(got, cho_solve(ref, rhs, check_finite=False)), order


def test_cholesky_kernel_names_the_failing_minor():
    message = r"^pair of order 2 is not positive definite: its leading minor of order 2 is not positive$"
    with pytest.raises(NumericalError, match=message):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "pair")
    indefinite = np.diag([4.0, 1.0, -1.0, 2.0])
    with pytest.raises(NumericalError, match=r"^matrix of order 4 .* minor of order 3 is not positive$"):
        cholesky_factor(indefinite)
    # LAPACK itself passes NaN pivots through; the kernel does not
    nan = np.eye(3)
    nan[1, 0] = nan[0, 1] = np.nan
    with pytest.raises(NumericalError, match=r"^matrix of order 3 .* order 2 has a non-finite pivot$"):
        cholesky_factor(nan)
    with pytest.raises(NumericalError, match=r"minor of order 1 has a non-finite pivot$"):
        cholesky_factor(np.full((3, 3), np.nan))


def test_singular_ridge_gram_is_a_numerical_error():
    # a constant feature duplicates the dummy column, and a ridge of 1e-300
    # vanishes next to the unit entries: U'U + aI is exactly singular
    with pytest.raises(NumericalError, match=r"^ridge Gram matrix U'U \+ aI of order 2 .* minor of order 2"):
        design = np.ones((3, 2))
        ridge_residuals(design, design.T @ design, 1e-300, np.ones(3))


def test_triangular_wrappers_are_bitwise_lapack():
    rng = np.random.default_rng(9)
    for order in (1, 2, 5, 21):
        m = rng.standard_normal((order + 3, order))
        factor = cholesky_factor(m.T @ m)
        assert reciprocal_condition(factor) == dtrcon(factor, norm="1", uplo="L")[0]
        for rhs in (rng.standard_normal(order), rng.standard_normal((order, 7))):
            got = triangular_solve(factor, rhs)
            assert got.shape == rhs.shape
            assert np.array_equal(got, dtrtrs(factor, rhs, lower=1)[0]), order


def test_triangular_solve_names_the_zero_diagonal_entry():
    factor = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 3.0]])
    message = r"^triangular factor of order 3 is singular: its diagonal entry 2 is zero$"
    with pytest.raises(NumericalError, match=message):
        triangular_solve(factor, np.ones(3))


# The one module of the package that may import each scipy subpackage, and
# then only inside a function, so that ``import cpreg`` loads no scipy.
SCIPY_IMPORTERS = {"scipy.linalg": "linalg.py", "scipy.special": "studentt.py", "scipy.stats": "protocol.py"}


def _scipy_imports(tree):
    """(line, scipy subpackage or None for bare scipy, inside a function) of each scipy import."""
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    nested = {id(node) for function in functions for node in ast.walk(function)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]  # from scipy import stats
        else:
            continue
        for parts in (module.split(".") for module in modules):
            if parts[0] == "scipy":
                yield node.lineno, ".".join(parts[:2]) if len(parts) > 1 else None, id(node) in nested


def test_each_scipy_subpackage_has_one_lazy_importer():
    offenders, importers = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = str(path.relative_to(PACKAGE))
        for line, subpackage, nested in _scipy_imports(tree):
            if not nested:
                offenders.append(f"{where}:{line}: scipy imported at module level")
            if SCIPY_IMPORTERS.get(subpackage) != where:
                offenders.append(f"{where}:{line}: imports {subpackage or 'scipy'}")
            importers.add((subpackage, where))
        if where == "linalg.py":
            continue
        for node in ast.walk(tree):  # no cho_factor/cho_solve by any route
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & {"cho_factor", "cho_solve"}:
                offenders.append(f"{where}:{node.lineno}: calls the scipy Cholesky wrappers")
    assert len(list(PACKAGE.rglob("*.py"))) > 10
    assert not offenders, offenders
    assert importers == set(SCIPY_IMPORTERS.items())  # the walk sees every importer
