"""Proximal operator and solver tests.

Expected values for the solver tests come from independent implementations
in oracles.py: coordinate descent for the l1 problems, an eigendecomposition
route for singular value thresholding, projected subgradient descent for
the nuclear-norm regression and a fixed-sweep ADMM loop for its solver.
Closed-form cases are asserted directly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdl.data import fisher_mean_map
from lrsdl.errors import (
    DataError,
    DimensionError,
    NumericalError,
    ParameterError,
)
from lrsdl.prox import (
    ADMM_TOL,
    FISTA_TOL,
    SmoothObjective,
    admm_nuclear,
    fista,
    power_iteration_lipschitz,
    soft_threshold,
    svt,
)

from oracles import (
    admm_fixed_sweeps,
    cd_lasso,
    fd_grad,
    fista_one_product,
    lasso_objective,
    mfista_one_block,
    nuclear_norm,
    rel_err,
    subgrad_nuclear_descent,
    svt_eigh,
)


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(np.array([1.5]), 1.0)[0] == pytest.approx(0.5)
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0
        assert soft_threshold(np.array([-2.0]), 0.5)[0] == pytest.approx(-1.5)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4, 6))
        assert np.array_equal(soft_threshold(W, 0.0), W)

    def test_exact_zeros_inside_band(self):
        W = np.array([[0.2, -0.5, 0.5000000001]])
        out = soft_threshold(W, 0.5)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 0.0
        assert out[0, 2] > 0.0

    def test_nonexpansive(self):
        # prox of a convex function is 1-Lipschitz
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            tau = float(rng.uniform(0, 2))
            lhs = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.zeros((2, 2)), -0.1)
        with pytest.raises(ParameterError):
            soft_threshold(np.zeros((2, 2)), np.nan)


def half_square(W):
    return 0.5 * float(np.sum(W * W))


class TestFista:
    def test_scalar_quadratic(self):
        # min 0.5*(w-3)^2 + 1*|w|  ->  w = 2
        obj = SmoothObjective(
            grad=lambda W: W - 3.0,
            lipschitz=1.0,
            value=lambda W: 0.5 * float(np.sum((W - 3.0) ** 2)),
        )
        out = fista(obj, 1.0, np.zeros((1, 1)), max_iter=200, tol=1e-12)
        assert abs(out[0, 0] - 2.0) < 1e-8

    def test_zero_l1_returns_smooth_minimizer(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((5, 4))
        obj = SmoothObjective(
            grad=lambda W: W - B,
            lipschitz=1.0,
            value=lambda W: 0.5 * float(np.sum((W - B) ** 2)),
        )
        out = fista(obj, 0.0, np.zeros((5, 4)), max_iter=500, tol=1e-12)
        assert np.max(np.abs(out - B)) < 1e-8

    def test_matches_coordinate_descent_on_lasso(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 10))
        b = rng.standard_normal((20, 1))
        lam = 0.1
        L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        obj = SmoothObjective(
            grad=lambda W: A.T @ (A @ W - b),
            lipschitz=L,
            value=lambda W: 0.5 * float(np.sum((A @ W - b) ** 2)),
        )
        out = fista(obj, lam, np.zeros((10, 1)), max_iter=2000, tol=1e-12)
        ref = cd_lasso(A, b[:, 0], lam)
        gap = lasso_objective(A, b[:, 0], lam, out[:, 0]) - lasso_objective(
            A, b[:, 0], lam, ref
        )
        assert gap <= 1e-6

    def test_objective_never_increases_with_value(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 12))
        b = rng.standard_normal((8, 1))
        lam = 0.05
        L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        seen = []

        def value(W):
            v = 0.5 * float(np.sum((A @ W - b) ** 2))
            seen.append(v + lam * float(np.abs(W).sum()))
            return v

        obj = SmoothObjective(
            grad=lambda W: A.T @ (A @ W - b), lipschitz=L, value=value
        )
        W0 = rng.standard_normal((12, 1))
        out = fista(obj, lam, W0, max_iter=100, tol=0.0)
        first = lasso_objective(A, b[:, 0], lam, W0[:, 0])
        final = lasso_objective(A, b[:, 0], lam, out[:, 0])
        assert final <= first + 1e-10
        assert seen == []  # the safeguard takes its values from the gradient

    def test_non_finite_gradient_raises_with_iteration(self):
        obj = SmoothObjective(
            grad=lambda W: np.full_like(W, np.nan), lipschitz=1.0, value=half_square
        )
        with pytest.raises(NumericalError, match="iteration 1"):
            fista(obj, 0.1, np.zeros((2, 2)), max_iter=10)

    def test_parameter_validation(self):
        obj = SmoothObjective(grad=lambda W: W, lipschitz=1.0, value=half_square)
        with pytest.raises(ParameterError):
            fista(obj, -0.1, np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            fista(obj, np.nan, np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            fista(obj, 0.1, np.zeros((2, 2)), max_iter=0)
        with pytest.raises(ParameterError):
            SmoothObjective(grad=lambda W: W, lipschitz=0.0, value=half_square)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iter=2.5),
            dict(max_iter=True),
            dict(max_iter=np.float64(3.0)),
            dict(tol=np.nan),
            dict(tol=-1.0),
            dict(tol=np.inf),
            dict(check_every=0),
            dict(check_every=2.5),
            dict(check_every=True),
            dict(check_every=np.float64(3.0)),
        ],
        ids=["max_iter-fraction", "max_iter-bool", "max_iter-float", "tol-nan",
             "tol-negative", "tol-inf", "check_every-zero", "check_every-fraction",
             "check_every-bool", "check_every-float"],
    )
    def test_budget_and_tolerance_checked(self, kwargs):
        # a fractional or boolean budget, or a tolerance that would turn the
        # stop off or fire it at once, is a ParameterError before any step
        obj = SmoothObjective(grad=lambda W: W, lipschitz=1.0, value=half_square)
        with pytest.raises(ParameterError):
            fista(obj, 0.1, np.ones((2, 2)), **kwargs)

    def test_warm_start_not_modified(self):
        obj = SmoothObjective(grad=lambda W: W, lipschitz=1.0, value=half_square)
        W0 = np.ones((3, 3))
        keep = W0.copy()
        fista(obj, 0.1, W0, max_iter=5)
        assert np.array_equal(W0, keep)


def least_squares_columns(A, B):
    """Gradient of sum_j 1/2 ||A w_j - b_j||^2, each column computed on its
    own, so a batch and a lone column share every bit."""

    def grad(W):
        return np.stack(
            [
                A.T @ (A @ np.ascontiguousarray(W[:, j]) - B[:, j])
                for j in range(W.shape[1])
            ],
            axis=1,
        )

    return grad


def counted(obj):
    """A copy of obj whose grad counts its calls and whose value fails the
    test, made with dataclasses.replace as perfbench/tracer.py makes it."""
    calls = []

    def grad(W, _grad=obj.grad):
        calls.append(1)
        return _grad(W)

    def value(W):
        pytest.fail("fista called obj.value")

    return dataclasses.replace(obj, grad=grad, value=value), calls


def spoil(a, fault):
    """a with one NaN, Inf or imaginary entry, or as numeric strings."""
    if fault == "strings":
        return a.astype(str)
    a = a.astype(complex if fault == "complex" else float)
    a.flat[0] = {"NaN": np.nan, "Inf": np.inf, "complex": 1j}[fault]
    return a


SOLVER_MATRICES = {
    "warm start": lambda bad: fista(
        SmoothObjective.quadratic(np.eye(2), np.ones((2, 3)), 1.0), 0.1, bad(np.zeros((2, 3)))
    ),
    "target V": lambda bad: admm_nuclear(bad(np.ones((3, 2))), np.ones((1, 2)), 0.1, 1.0),
    "codes Xcoef": lambda bad: admm_nuclear(np.ones((3, 2)), bad(np.ones((1, 2))), 0.1, 1.0),
}


@pytest.mark.parametrize("fault", ["NaN", "Inf", "strings", "complex"])
@pytest.mark.parametrize("name", list(SOLVER_MATRICES), ids=["W0", "V", "Xcoef"])
def test_solver_matrices_meet_the_number_rule(name, fault):
    # errors.check_real names the input: no numpy warning from a product,
    # no NumericalError naming nothing, no string parsed or imaginary
    # part dropped
    with pytest.raises(DataError, match=f"^{name} "):
        SOLVER_MATRICES[name](lambda a: spoil(a, fault))


class TestFistaColumnBlocks:
    """fista with per_column set: one safeguard block per column."""

    def problem(self, seed=7):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((12, 8)) * np.geomspace(1.0, 0.02, 8)
        B = rng.standard_normal((12, 4))
        B[:, 0] = 0.0  # optimal at the zero start: stops at iteration 1
        B[:, 2] = A @ np.where(np.arange(8) < 3, 1.0, 0.0)  # well fit by 3 atoms
        L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        return A, B, L

    def solve(self, A, B, L, lam, W0, max_iter, tol, check_every=1):
        obj = SmoothObjective(
            grad=least_squares_columns(A, B), lipschitz=L, per_column=True
        )
        obj, calls = counted(obj)
        out = fista(obj, lam, W0, max_iter=max_iter, tol=tol, check_every=check_every)
        return out, len(calls)

    @pytest.mark.parametrize("check_every", [1, 10])
    def test_batch_equals_each_column_alone(self, check_every):
        # the budget sits below the 330 iterations column 3 needs to stop
        # on tolerance and above the 282 of column 1 (290 when the stop is
        # tested every tenth iteration)
        A, B, L = self.problem()
        W0 = np.zeros((8, 4))
        budget = 300
        batch, batch_iters = self.solve(A, B, L, 0.05, W0, budget, 1e-6, check_every)
        iters = []
        for j in range(4):
            alone, n = self.solve(
                A, B[:, [j]], L, 0.05, W0[:, [j]], budget, 1e-6, check_every
            )
            assert np.array_equal(batch[:, j], alone[:, 0]), f"column {j}"
            iters.append(n)
        # a solve stops on tolerance only on a tested iteration
        assert all(n % check_every == 0 for n in iters if n < budget)
        # all-zero target: accepted, no change, stop at the first test
        assert iters[0] == check_every
        assert max(iters) == budget  # the slowest column spends the budget
        assert batch_iters == max(iters)
        # column 2 stops on tolerance while further steps would still move
        # it, so the batch must freeze it there
        assert 1 < iters[2] < budget
        longer, _ = self.solve(A, B[:, [2]], L, 0.05, W0[:, [2]], budget, 0.0)
        assert not np.array_equal(batch[:, 2], longer[:, 0])

    def test_columns_stopping_at_different_tests_match_each_column_alone(self):
        # with the stop tested every tenth iteration, the columns stop on
        # three different tests, and a column still live after the first
        # stop has a step rejected, so the restart runs while stopped
        # columns sit in the batch: each must be the iterate it stopped at
        A, B, L, W0 = rejecting_problem()
        batch, batch_iters = self.solve(A, B, L, 0.05, W0, 200, 1e-3, check_every=10)
        stops = []
        for j in range(4):
            alone, n = self.solve(A, B[:, [j]], L, 0.05, W0[:, [j]], 200, 1e-3, check_every=10)
            assert np.array_equal(batch[:, j], alone[:, 0]), f"column {j}"
            stops.append(n)
        assert batch_iters == max(stops) < 200
        assert all(n % 10 == 0 for n in stops)
        assert len(set(stops)) == 3

        def rejected(j, k):
            # step k left the iterate of column j, solved alone, unchanged
            before, _ = self.solve(A, B[:, [j]], L, 0.05, W0[:, [j]], k - 1, 0.0)
            after, _ = self.solve(A, B[:, [j]], L, 0.05, W0[:, [j]], k, 0.0)
            return np.array_equal(before, after)

        first = min(stops)
        assert any(rejected(j, k) for j in range(4) for k in range(first + 1, stops[j] + 1))

    def test_stops_when_every_column_has_stopped(self):
        A, B, L = self.problem()
        _, n = self.solve(A, B[:, [0, 0]], L, 0.05, np.zeros((8, 2)), 400, 1e-9)
        assert n == 1

    def test_each_column_objective_never_increases(self):
        A, B, L = self.problem(seed=8)
        lam = 0.05
        W0 = np.random.default_rng(9).standard_normal((8, 4))

        def objectives(W):
            return np.array([lasso_objective(A, B[:, j], lam, W[:, j]) for j in range(4)])

        prev = objectives(W0)
        for n in range(1, 60):
            W, _ = self.solve(A, B, L, lam, W0, n, 0.0)
            now = objectives(W)
            assert np.all(now <= prev + 1e-12 * np.maximum(1.0, np.abs(prev))), n
            prev = now

    def test_scalar_value_matches_one_block_reference_bit_for_bit(self):
        # the whole matrix as one block against the one-product loop
        # written out in oracles.py
        rng = np.random.default_rng(10)
        A = rng.standard_normal((15, 9))
        B = rng.standard_normal((15, 3))
        L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])

        def grad(W):
            return A.T @ (A @ W - B)

        W0 = rng.standard_normal((9, 3))
        obj = SmoothObjective(grad=grad, lipschitz=L)
        out = fista(obj, 0.1, W0, max_iter=150, tol=1e-7)
        ref, _ = fista_one_product(grad, L, 0.1, W0, 150, 1e-7)
        assert out.tobytes() == ref.tobytes()

    def test_rejected_steps_match_one_block_reference_bit_for_bit(self):
        # a step size below the Lipschitz constant makes the safeguard
        # reject steps, which restart the momentum at W: of the whole
        # matrix, and of each column solved alone as a vector
        A, B, L, W0 = rejecting_problem()
        for cols in [slice(None), *range(B.shape[1])]:

            def grad(W, b=B[:, cols]):
                return A.T @ (A @ W - b)

            out = fista(SmoothObjective(grad=grad, lipschitz=L), 0.05, W0[:, cols], 60, 0.0)
            ref, _ = fista_one_product(grad, L, 0.05, W0[:, cols], 60, 0.0)
            assert out.tobytes() == ref.tobytes(), cols

    def test_mixed_column_steps_match_each_column_alone(self):
        # some columns accept a step while others reject it
        A, B, L, W0 = rejecting_problem()
        batch, _ = self.solve(A, B, L, 0.05, W0, 60, 0.0)
        for j in range(4):
            alone, _ = self.solve(A, B[:, [j]], L, 0.05, W0[:, [j]], 60, 0.0)
            assert np.array_equal(batch[:, j], alone[:, 0]), f"column {j}"


def rejecting_problem():
    """A least-squares problem A, B, a step size L = 0.7 lambda_max(A^T A)
    below its Lipschitz constant and a warm start W0. The safeguard rejects
    some steps: at an l1 weight of 0.05, over 60 iterations, 5 of the
    whole-matrix steps, and with one block per column it accepts some
    columns and rejects others on 19 iterations."""
    rng = np.random.default_rng(10)
    A = rng.standard_normal((10, 6)) * np.geomspace(1.0, 0.1, 6)
    B = A @ rng.standard_normal((6, 4)) * [1.0, 0.1, 3.0, 0.5]
    W0 = np.random.default_rng(1).standard_normal((6, 4))
    return A, B, 0.7 * float(np.linalg.eigvalsh(A.T @ A)[-1]), W0


@pytest.mark.parametrize("per_column", [False, True], ids=["whole", "columns"])
def test_rejected_step_restarts_momentum(per_column):
    """A rejected block restarts at its iterate: Z = W, grad Z = grad W and
    t = 1. Its next candidate is then the plain proximal gradient step
    prox(W) = shrink(W - grad(W) / L), and if that candidate is accepted,
    its momentum weight (t - 1) / t_new is 0, so the candidate after it is
    again the plain step from the new iterate. Resetting t alone fails the
    first check, resetting Z alone the second."""
    A, B, L, W0 = rejecting_problem()
    lam, budget = 0.05, 60
    grad = least_squares_columns(A, B)  # each column's bits are its own
    cands = []

    def recording(W):
        cands.append(W.copy())
        return grad(W)

    def solve(grad_at_candidates, max_iter):
        obj = SmoothObjective(
            grad=grad_at_candidates, lipschitz=L, per_column=per_column, raw_grad=grad
        )
        return fista(obj, lam, W0, max_iter=max_iter, tol=0.0)

    def prox(W):
        return soft_threshold(W - grad(W) / L, lam / L)

    solve(recording, budget)
    iterates = [W0] + [solve(grad, k) for k in range(1, budget + 1)]  # W_k after k steps
    blocks = [(slice(None), j) for j in range(W0.shape[1])] if per_column else [...]
    restarts = accepted_after_restart = 0
    for blk in blocks:
        restarted = False
        for k in range(1, budget):
            W_prev, W, cand = iterates[k - 1][blk], iterates[k][blk], cands[k - 1][blk]
            moved = not np.array_equal(cand, W_prev)
            accepted = moved and np.array_equal(W, cand)
            rejected = moved and np.array_equal(W, W_prev)
            if rejected or (restarted and accepted):
                assert np.array_equal(cands[k][blk], prox(iterates[k])[blk]), (k, blk)
                restarts += rejected
                accepted_after_restart += accepted
            restarted = rejected
    assert restarts >= 4 and accepted_after_restart >= 4, (restarts, accepted_after_restart)


@pytest.mark.parametrize("per_column", [False, True], ids=["whole", "columns"])
def test_rejected_plain_step_is_proposed_again(per_column):
    """At a step size of 0.2 lambda_max(A^T A) the plain proximal gradient
    step from the warm start raises every block's objective. Each later
    candidate is then that same step, rejected again, and the iterate never
    moves: a restart goes back to the iterate's own prox point, never to the
    rejected candidate's."""
    A, B, L, W0 = rejecting_problem()
    L *= 0.2 / 0.7
    grad = least_squares_columns(A, B)
    cands = []

    def recording(W):
        cands.append(W.copy())
        return grad(W)

    obj = SmoothObjective(grad=recording, lipschitz=L, per_column=per_column, raw_grad=grad)
    out = fista(obj, 0.05, W0, max_iter=10, tol=0.0)
    plain = soft_threshold(W0 - grad(W0) / L, 0.05 / L)
    assert np.array_equal(out, W0)
    assert len(cands) == 10
    for k, cand in enumerate(cands, 1):
        assert np.array_equal(cand, plain), k


@pytest.mark.parametrize("lone", [0, [0]], ids=["vector", "one-column"])
def test_lone_column_is_one_block(lone):
    """With per_column set, a vector or a one-column start is one safeguard
    block, so fista returns the bits of the whole-block solve, rejected
    steps and tolerance stops included."""
    A, B, L, W0 = rejecting_problem()
    for j in range(B.shape[1]):
        cols = j if lone == 0 else [j]
        H, b = A.T @ A, A.T @ B[:, cols]
        out = [
            fista(SmoothObjective.quadratic(H, b, L, per_column=per_column), 0.05, W0[:, cols])
            for per_column in (False, True)
        ]
        assert out[1].shape == W0[:, cols].shape
        assert out[1].tobytes() == out[0].tobytes(), j


@pytest.mark.parametrize("per_column", [False, True], ids=["whole", "columns"])
@pytest.mark.parametrize("problem", ["rejecting", "column-blocks"])
def test_iterates_match_direct_gradient_loop(per_column, problem):
    """Every iterate, budgets 1 to 60 with no tolerance stop, against
    mfista_one_block (explicit momentum points, the gradient at each, values
    from the least-squares objective), one column at a time when the solve
    has one block per column. Round-off grows with the steps: the largest
    gap, 2.7e-9 of the largest entry, comes in per-column mode after 40
    steps on the column-block problem."""
    if problem == "rejecting":
        A, B, L, W0 = rejecting_problem()
    else:
        A, B, L = TestFistaColumnBlocks().problem()
        W0 = np.zeros((A.shape[1], B.shape[1]))
    lam = 0.05
    obj = SmoothObjective(grad=least_squares_columns(A, B), lipschitz=L, per_column=per_column)
    blocks = [[j] for j in range(B.shape[1])] if per_column else [slice(None)]

    def reference(cols, max_iter):
        Bc = B[:, cols]
        return mfista_one_block(
            lambda W: A.T @ (A @ W - Bc),
            lambda W: 0.5 * float(np.sum((A @ W - Bc) ** 2)),
            L, lam, W0[:, cols], max_iter, 0.0,
        )

    for k in range(1, 61):
        out = fista(obj, lam, W0, max_iter=k, tol=0.0)
        ref = np.column_stack([reference(cols, k) for cols in blocks])
        assert np.max(np.abs(out - ref)) <= 1e-8 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("per_column", [False, True], ids=["whole", "columns"])
class TestFistaInPlace:
    """fista updates its own buffers in place, in both block modes: the
    warm start, the arrays obj.grad returns and earlier results are never
    written to, and a non-finite gradient is still caught."""

    def objective(self, per_column, corrupt=None):
        """Gram-pair objective that keeps each gradient it returns together
        with a copy; corrupt(k, W, G) may edit the k-th gradient first."""
        A, B, L, W0 = rejecting_problem()
        H, AtB = A.T @ A, A.T @ B
        returned = []

        def grad(W):
            G = H @ W - AtB
            if corrupt is not None:
                corrupt(len(returned) + 1, W, G)
            returned.append((G, G.copy()))
            return G

        obj = SmoothObjective(
            grad=grad, lipschitz=L, per_column=per_column, raw_grad=lambda W: H @ W - AtB
        )
        return obj, W0, returned

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_zero", [True, False], ids=["zero-entry", "nonzero-entry"])
    def test_one_non_finite_gradient_entry_raises(self, per_column, bad, at_zero):
        def corrupt(k, W, G):
            if k == 3:  # the candidate has 6 zero entries out of 24
                G[tuple(np.argwhere((W == 0) == at_zero)[0])] = bad

        obj, W0, _ = self.objective(per_column, corrupt)
        with pytest.raises(NumericalError, match="iteration 3"):
            fista(obj, 0.3, W0, max_iter=20, tol=0.0)

    def test_inputs_and_returned_gradients_never_written(self, per_column):
        obj, W0, returned = self.objective(per_column)
        keep = W0.copy()
        fista(obj, 0.05, W0, max_iter=60, tol=0.0)
        assert np.array_equal(W0, keep)
        assert len(returned) == 60
        for k, (G, copy) in enumerate(returned, 1):
            assert np.array_equal(G, copy), f"gradient {k} was overwritten"

    def test_consecutive_solves_return_independent_arrays(self, per_column):
        obj, W0, _ = self.objective(per_column)
        first = fista(obj, 0.05, W0, max_iter=60, tol=0.0)
        keep = first.copy()
        second = fista(obj, 0.05, W0, max_iter=60, tol=0.0)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, keep) and np.array_equal(second, keep)
        second[...] = 0.0
        assert np.array_equal(first, keep)


class TestFistaIterationCount:
    """fista calls obj.grad once per iteration and never obj.value, so a
    copy of the objective with a counting grad (perfbench/tracer.py makes
    one with dataclasses.replace) counts the iterations run."""

    def problem(self, b_scale=1.0):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((12, 6))
        b = b_scale * rng.standard_normal((12, 2))
        L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        return A.T @ A, A.T @ b, L

    def objectives(self, H, B, L):
        """The hand-written form and the Gram-pair forms of one problem."""
        return {
            "hand-written": SmoothObjective(
                grad=lambda W: H @ W - B,
                lipschitz=L,
                value=lambda W: 0.5 * float(np.vdot(W, H @ W)) - float(np.vdot(B, W)),
            ),
            "quadratic": SmoothObjective.quadratic(H, B, L),
            "per-column": SmoothObjective.quadratic(H, B, L, per_column=True),
        }

    def run(self, obj, max_iter, tol=1e-6):
        wrapped, calls = counted(obj)
        return fista(wrapped, 0.05, np.zeros((6, 2)), max_iter=max_iter, tol=tol), len(calls)

    def test_stop_at_iteration_one(self):
        # zero data: the zero start is optimal, the first step is accepted
        # without a change and every block stops
        for name, obj in self.objectives(*self.problem(b_scale=0.0)).items():
            out, n = self.run(obj, 50)
            assert n == 1, name
            assert not out.any(), name

    def test_tolerance_stop_at_iteration_k(self):
        H, B, L = self.problem()
        for name, obj in self.objectives(H, B, L).items():
            out, n = self.run(obj, 400)
            assert 1 < n < 400, name
            # n is the true count: one iteration less gives another
            # iterate, a larger budget the same one
            assert not np.array_equal(self.run(obj, n - 1)[0], out), name
            more, n_more = self.run(obj, n + 20)
            assert n_more == n and np.array_equal(more, out), name
            if not obj.per_column:
                ref, iters = fista_one_product(obj.grad, L, 0.05, np.zeros((6, 2)), 400, 1e-6)
                assert iters == n and np.array_equal(ref, out), name

    def test_full_budget(self):
        H, B, L = self.problem()
        for name, obj in self.objectives(H, B, L).items():
            assert self.run(obj, 7)[1] == 7, name
            assert self.run(obj, 40, tol=0.0)[1] == 40, name


@settings(max_examples=500, deadline=None)
@given(
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    L=st.floats(1e-3, 1e3),
    entries=st.lists(
        st.one_of(
            st.floats(-20.0, 20.0),
            st.sampled_from(["tau", "-tau", 0.0, -0.0]),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_l1_term_read_off_the_clip(lam, L, entries):
    """The identity fista takes its l1 term from: for s = P - clip(P, -tau,
    tau) with tau = lam / L, the clip is tau sign(s) wherever s is nonzero,
    so L <s, clip> = lam ||s||_1. Entries sit on the band's edges +-tau and
    on both zeros as well as anywhere in it and beyond."""
    tau = lam / L
    P = np.array([{"tau": tau, "-tau": -tau}.get(e, e) for e in entries])
    clip = np.minimum(np.maximum(P, -tau), tau)
    s = soft_threshold(P, tau)
    assert np.array_equal(s, P - clip)
    l1 = lam * float(np.abs(s).sum())
    assert abs(L * float(np.dot(s, clip)) - l1) <= 1e-12 * l1


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
    warm=st.booleans(),
    per_column=st.booleans(),
    max_iter=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_fista_matches_direct_gradient_loop(n, m, lam, warm, per_column, max_iter, seed):
    """fista (one gradient call per iteration, values from gradients)
    against mfista_one_block (the gradient at every momentum point, values
    from the explicit quadratic) on random SPD problems. Where the monotone
    test meets a last-bit tie the two can restart or stop at different
    iterations, so the final composite objectives are compared, not the
    iterates."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = A @ A.T + 0.1 * np.eye(n)
    B = rng.standard_normal((n, m))
    L = 1.01 * float(np.linalg.eigvalsh(H)[-1])
    W0 = rng.standard_normal((n, m)) if warm else np.zeros((n, m))

    obj = SmoothObjective.quadratic(H, B, L, per_column=per_column)
    out = fista(obj, lam, W0, max_iter=max_iter)

    def terms(W):
        # the composite objective's three terms, per column
        return (
            0.5 * np.sum(W * (H @ W), axis=0),
            -np.sum(B * W, axis=0),
            lam * np.sum(np.abs(W), axis=0),
        )

    def reference(W0, Bj):
        return mfista_one_block(
            lambda W: H @ W - Bj,
            lambda W: 0.5 * float(np.vdot(W, H @ W)) - float(np.vdot(Bj, W)),
            L, lam, W0, max_iter, FISTA_TOL,
        )

    if per_column:
        ref = np.column_stack([reference(W0[:, [j]], B[:, [j]])[:, 0] for j in range(m)])
    else:
        ref = reference(W0, B)
    got, want = terms(out), terms(ref)
    if not per_column:  # one block: the objective sums over the columns
        got, want = [t.sum() for t in got], [t.sum() for t in want]
    scale = sum(np.abs(t) for t in want)
    assert np.all(np.abs(sum(got) - sum(want)) <= 1e-12 * np.maximum(scale, 1e-300))


class TestQuadraticObjective:
    """SmoothObjective.quadratic from a Gram pair (H, B) and an optional
    Fisher class-mean map (Q, S) (data.fisher_mean_map). fista takes g(W) - g(0) as
    1/2 <W, grad(W) + grad(0)>, so that is the value checked here."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 5))
        self.H = A @ A.T + 0.1 * np.eye(5)  # random SPD
        self.B = rng.standard_normal((5, 6))
        self.rng = rng

    def explicit(self, W, fisher=None):
        """1/2 <W, H W> - <B, W>, plus for fisher = (lambda2, sizes, N) the
        term lambda2 (||sum_b n_b M_b||^2 / (2 N) - sum_b n_b ||M_b||^2)
        over the means M_b of the blocks of n_b = sizes[b] columns, whose
        gradient at a column of block b is lambda2 (sum_b n_b M_b / N - 2 M_b)."""
        v = 0.5 * float(np.sum(W * (self.H @ W))) - float(np.sum(self.B * W))
        if fisher is not None:
            lambda2, sizes, N = fisher
            ends = np.cumsum(sizes)
            M = [W[:, e - n : e].mean(axis=1) for n, e in zip(sizes, ends)]
            total = sum(n * m for n, m in zip(sizes, M))
            own = sum(n * float(m @ m) for n, m in zip(sizes, M))
            v += lambda2 * (float(total @ total) / (2 * N) - own)
        return v

    @staticmethod
    def value(obj, W):
        return 0.5 * float(np.vdot(W, obj.grad(W) + obj.grad(np.zeros_like(W))))

    def test_value_matches_explicit_quadratic(self):
        # joint class codes (3 classes of 1, 2 and 3 columns), a sequential
        # block (one class of 6 out of 15 columns) and no Fisher term
        for fisher in (None, (0.7, (1, 2, 3), 6), (0.7, (6,), 15)):
            pair = None
            if fisher is not None:
                lambda2, sizes, N = fisher
                pair = fisher_mean_map(sizes, N, lambda2)
            obj = SmoothObjective.quadratic(self.H, self.B, 1.0, fisher=pair)
            assert np.array_equal(obj.grad(np.zeros((5, 6))), -self.B)
            for _ in range(5):
                W = self.rng.standard_normal((5, 6))
                assert self.value(obj, W) == pytest.approx(
                    self.explicit(W, fisher), rel=1e-12, abs=1e-12
                )
                fd = fd_grad(lambda V: self.explicit(V, fisher), W)
                assert rel_err(obj.grad(W), fd) < 1e-6, fisher

    def test_grad_at_zero_computed_once_and_value_skips_obj_grad(self):
        seen = []

        def grad(W):
            seen.append(np.array(W))
            return self.H @ W - self.B

        obj, calls = counted(SmoothObjective(grad=grad, lipschitz=50.0))
        W0 = self.rng.standard_normal((5, 6))
        fista(obj, 0.1, W0, max_iter=7, tol=0.0)
        assert len(calls) == 7
        # raw_grad survives dataclasses.replace: two more calls per solve,
        # at the start point and at zero
        assert obj.raw_grad is grad and len(seen) == 9
        assert np.array_equal(seen[0], W0) and not seen[1].any()

    def test_per_column_value_is_each_column_quadratic(self):
        obj = SmoothObjective.quadratic(self.H, self.B, 1.0, per_column=True)
        assert obj.per_column
        W = self.rng.standard_normal((5, 6))
        G, G0 = obj.grad(W), obj.grad(np.zeros_like(W))
        got = 0.5 * np.sum(W * (G + G0), axis=0)
        for j in range(6):
            w, b = W[:, j], self.B[:, j]
            assert np.allclose(G[:, j], self.H @ w - b, rtol=1e-12, atol=1e-12)
            want = 0.5 * float(w @ self.H @ w) - float(b @ w)
            assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSvt:
    def test_diagonal_example(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 4))
        assert np.max(np.abs(svt(M, 0.0) - M)) < 1e-10

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 3))
        out = svt(M, 0.7)
        ref = svt_eigh(M, 0.7)
        assert np.max(np.abs(out - ref)) < 1e-8

    def test_singular_values_shrunk_exactly(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 5))
        tau = 0.9
        s_in = np.linalg.svd(M, compute_uv=False)
        s_out = np.linalg.svd(svt(M, tau), compute_uv=False)
        want = np.maximum(s_in - tau, 0.0)
        assert np.max(np.abs(np.sort(s_out)[::-1] - np.sort(want)[::-1])) < 1e-8

    def test_nuclear_norm_drop(self):
        # ||svt(M, tau)||_* = ||M||_* - tau * rank(svt(M, tau)) when no
        # singular value sits exactly at tau, and never less than zero
        rng = np.random.default_rng(9)
        M = rng.standard_normal((5, 5))
        tau = 0.6
        out = svt(M, tau)
        r = np.linalg.matrix_rank(out, tol=1e-10)
        want = max(nuclear_norm(M) - tau * r, 0.0)
        assert nuclear_norm(out) <= want + 1e-8

    def test_rank_never_grows(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        for tau in (0.0, 0.3, 1.0):
            assert np.linalg.matrix_rank(svt(base, tau), tol=1e-10) <= 2

    def test_empty_dimensions(self):
        assert svt(np.zeros((0, 3)), 1.0).shape == (0, 3)
        assert svt(np.zeros((3, 0)), 1.0).shape == (3, 0)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            svt(np.eye(2), -1.0)
        with pytest.raises(ParameterError):
            svt(np.eye(2), np.nan)
        with pytest.raises(DimensionError):
            svt(np.zeros(3), 1.0)
        with pytest.raises(DataError):
            svt(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)


class TestAdmmNuclear:
    def test_zero_eta_gives_least_squares(self):
        rng = np.random.default_rng(11)
        V = rng.standard_normal((6, 10))
        X = rng.standard_normal((4, 10))
        D, _, _ = admm_nuclear(V, X, eta=0.0, rho=1.0, iters=400)
        ref = np.linalg.lstsq(X.T, V.T, rcond=None)[0].T
        assert np.max(np.abs(D - ref)) < 1e-6

    def test_huge_eta_gives_zero(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal((5, 8))
        X = rng.standard_normal((3, 8))
        # zero is optimal once eta dominates the gradient of the fit term at 0
        G = X @ X.T
        eta = 2.0 * np.linalg.norm(V @ X.T, 2) * np.linalg.norm(
            np.linalg.inv(G), 2
        ) * 10.0
        D, _, _ = admm_nuclear(V, X, eta=eta, rho=1.0, iters=300)
        assert np.max(np.abs(D)) < 1e-6

    def test_beats_subgradient_oracle(self):
        rng = np.random.default_rng(13)
        V = rng.standard_normal((6, 12))
        X = rng.standard_normal((4, 12))
        eta = 0.5
        D, _, _ = admm_nuclear(V, X, eta=eta, rho=1.0, iters=400)

        def objective(M):
            return float(np.sum((V - M @ X) ** 2)) + eta * nuclear_norm(M)

        best_ref = subgrad_nuclear_descent(V, X, eta, steps=100000, seed=0)
        assert objective(D) <= best_ref + 1e-4

    def test_consensus_residual_shrinks(self):
        # the solve stops on its residuals before the budget, with the
        # primal residual under its bound (max(||D||, ||Z||) <= ||Z|| + r);
        # a smaller budget still caps the sweeps, unconverged
        rng = np.random.default_rng(14)
        V = rng.standard_normal((8, 15))
        X = rng.standard_normal((5, 15))
        Z, res, converged = admm_nuclear(V, X, eta=0.3, rho=1.0, iters=100)
        assert len(res) < 100 and converged is True
        r = res[-1][0]
        assert r <= np.sqrt(Z.size) * ADMM_TOL + ADMM_TOL * (np.linalg.norm(Z) + r)
        _, capped, converged = admm_nuclear(V, X, eta=0.3, rho=1.0, iters=3)
        assert len(capped) == 3 and converged is False

    def test_output_has_thresholded_structure(self):
        # returned Z is an exact svt image: no singular value in (0, tiny)
        rng = np.random.default_rng(15)
        V = rng.standard_normal((6, 9))
        X = rng.standard_normal((6, 9))
        eta, rho = 1.5, 1.0
        Z, _, _ = admm_nuclear(V, X, eta=eta, rho=rho, iters=200)
        s = np.linalg.svd(Z, compute_uv=False)
        assert np.all((s > 1e-12) | (s == 0.0) | (s < 1e-12))
        # at least one direction is fully cut at this regularization level
        assert np.sum(s < 1e-12) >= 1 or s.size == 0

    def test_empty_code_rows(self):
        Z, res, converged = admm_nuclear(np.zeros((4, 7)), np.zeros((0, 7)), eta=0.5, rho=1.0)
        assert Z.shape == (4, 0) and res == [(0.0, 0.0)] and converged

    def test_parameter_validation(self):
        V = np.zeros((3, 5))
        X = np.zeros((2, 5))
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, eta=-0.1, rho=1.0)
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, eta=0.1, rho=0.0)
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, eta=np.nan, rho=1.0)
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, eta=0.1, rho=np.nan)
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, eta=0.1, rho=1.0, iters=0)
        with pytest.raises(DimensionError):
            admm_nuclear(np.zeros((3, 5)), np.zeros((2, 4)), eta=0.1, rho=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iters=2.5),
            dict(iters=True),
            dict(iters=np.float64(3.0)),
            dict(rho=np.inf),
        ],
        ids=["iters-fraction", "iters-bool", "iters-float", "rho-inf"],
    )
    def test_budget_and_penalty_checked(self, kwargs):
        # an infinite rho used to reach the SVD as NaN and surface as a
        # misleading DataError after a RuntimeWarning
        rng = np.random.default_rng(0)
        V, X = rng.standard_normal((3, 5)), rng.standard_normal((2, 5))
        with pytest.raises(ParameterError):
            admm_nuclear(V, X, **{"eta": 0.1, "rho": 1.0, **kwargs})


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 8),
    k=st.integers(1, 6),
    n=st.integers(1, 8),
    eta=st.floats(0.0, 5.0),
    rho=st.floats(0.01, 100.0),
    iters=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_admm_matches_fixed_sweep_loop(d, k, n, eta, rho, iters, seed):
    """admm_nuclear (inverse formed once, residual stop) against
    admm_fixed_sweeps (a solve every sweep, no stop) run for the sweeps
    admm_nuclear used, with k > n allowed. A stop on the tolerance, on the
    last allowed sweep too, must have both residuals under their bounds."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((d, n))
    X = rng.standard_normal((k, n))
    Z, res, converged = admm_nuclear(V, X, eta=eta, rho=rho, iters=iters)
    assert 1 <= len(res) <= iters
    D_o, Z_o, U_o, Z_prev_o = admm_fixed_sweeps(V, X, eta, rho, len(res))
    # relative to the iterates' size: D can be tiny next to U and Z
    scale = max(np.linalg.norm(D_o), np.linalg.norm(Z_o), np.linalg.norm(U_o))
    assert np.linalg.norm(Z - Z_o) <= 1e-10 * scale
    r, s = res[-1]
    assert abs(r - np.linalg.norm(D_o - Z_o)) <= 1e-10 * scale
    assert abs(s - rho * np.linalg.norm(Z_o - Z_prev_o)) <= 1e-10 * rho * scale
    assert converged or len(res) == iters
    if converged:
        floor = np.sqrt(d * k) * ADMM_TOL
        assert r <= floor + ADMM_TOL * max(np.linalg.norm(D_o), np.linalg.norm(Z_o))
        assert s <= floor + ADMM_TOL * rho * np.linalg.norm(U_o)


@pytest.mark.parametrize(
    "d, k, n, codes",
    [(250, 25, 250, "random"), (6, 10, 12, "random"), (30, 5, 20, "zero"), (9, 0, 20, "zero")],
    ids=["tall", "wide", "zero-codes", "no-code-rows"],
)
def test_admm_reduced_basis_matches_fixed_sweep_loop(d, k, n, codes):
    """admm_nuclear sweeps the coordinates of an orthonormal basis Q of
    span(2 V X^T); against admm_fixed_sweeps, which sweeps the full d x k
    iterates, at the train_shared shape (d = 250, k = 25), with more code
    rows than features (Q is d x d), with X = 0 (V X^T = 0) and with no
    code rows (one sweep, a d x 0 result)."""
    rng = np.random.default_rng(d * 100 + k)
    V = rng.standard_normal((d, 8)) @ rng.standard_normal((8, n))
    X = rng.standard_normal((k, n)) if codes == "random" else np.zeros((k, n))
    Z, res, _ = admm_nuclear(V, X, eta=2.0, rho=1.0, iters=100)
    assert Z.shape == (d, k)
    D_o, Z_o, U_o, Z_prev_o = admm_fixed_sweeps(V, X, 2.0, 1.0, len(res))
    scale = max(np.linalg.norm(D_o), np.linalg.norm(Z_o), np.linalg.norm(U_o))
    assert np.linalg.norm(Z - Z_o) <= 1e-10 * scale
    r, s = res[-1]
    assert abs(r - np.linalg.norm(D_o - Z_o)) <= 1e-10 * scale
    assert abs(s - np.linalg.norm(Z_o - Z_prev_o)) <= 1e-10 * scale
    if codes == "zero":
        assert res == [(0.0, 0.0)] and not Z.any()
    else:
        assert 1 < len(res) < 100  # stopped on its residuals


class TestPowerIterationLipschitz:
    def test_scalar_doubling(self):
        assert power_iteration_lipschitz(2.0 * np.eye(3)) == pytest.approx(2.0, rel=1e-15)

    def test_diagonal_gram(self):
        A = np.diag([3.0, 1.0])
        assert power_iteration_lipschitz(A.T @ A) == pytest.approx(9.0, rel=1e-15)

    def test_brackets_top_eigenvalue(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((8, 8))
        G = A.T @ A
        assert power_iteration_lipschitz(G) == float(np.linalg.eigvalsh(G)[-1])

    def test_zero_operator_floor(self):
        assert power_iteration_lipschitz(np.zeros((4, 4))) == 1e-12

    def test_validation(self):
        with pytest.raises(NumericalError):
            power_iteration_lipschitz(np.full((2, 2), np.inf))
        with pytest.raises(NumericalError):
            power_iteration_lipschitz(np.full((2, 2), np.nan))
        with pytest.raises(DimensionError):
            power_iteration_lipschitz(np.zeros((2, 3)))
