"""Dictionary update tests.

The class-dictionary Gram pair (class_dict_gram) is validated against
finite differences of the explicitly stacked fidelity
(oracles.stacked_fidelity) and the ODL column sweeps against a projected
gradient solver on the same quadratic. The shared step's keep-or-reject
guard is checked on a hand-built case whose rescaled candidate fits worse
and, on generated problems, never to return a worse dictionary.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdl import dictupdate
from lrsdl.data import CoefBundle, DictionaryBundle, generate_synthetic, normalize_columns
from lrsdl.dictupdate import (
    _quad_value,
    class_dict_gram,
    count_dead_atoms,
    odl_update,
    update_shared_dict,
)
from lrsdl.errors import DimensionError, NumericalError
from lrsdl.prox import admm_nuclear

from oracles import (
    fd_grad,
    nuclear_norm,
    projected_gradient_dict,
    quad_dict_objective,
    rel_err,
    stacked_fidelity,
)


def random_problem(seed, C=3, d=8, n_c=4, k_c=3, k0=2):
    rng = np.random.default_rng(seed)
    data, _ = generate_synthetic(
        C=C, d=d, n_c=n_c, k_c=k_c, k0=k0,
        shared_rank=min(2, k0), noise_sigma=0.1, seed=seed,
    )
    D = np.hstack([normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)])
    shared = (
        normalize_columns(rng.standard_normal((d, k0)))
        if k0
        else np.zeros((d, 0))
    )
    dicts = DictionaryBundle(D=D, shared_dict=shared, C=C)
    coefs = CoefBundle(
        X=rng.standard_normal((C * k_c, C * n_c)),
        X0=rng.standard_normal((k0, C * n_c)),
    )
    return data, dicts, coefs


class TestAssembleClassProblem:
    """The class-dictionary quadratic tr(F D^T D) - 2 tr(E D^T) built from
    class_dict_gram's Gram pair, for the whole D at once."""

    def test_zero_codes_give_zero_problem(self):
        data, dicts, _ = random_problem(0)
        coefs = CoefBundle(X=np.zeros((dicts.K, data.N)), X0=np.zeros((dicts.k0, data.N)))
        F, E = class_dict_gram(coefs, data.Y, data.sizes)
        assert F.shape == (dicts.K, dicts.K) and E.shape == (dicts.d, dicts.K)
        assert np.array_equal(F, np.zeros_like(F))
        assert np.array_equal(E, np.zeros_like(E))

    def test_single_class_closed_form(self):
        data, dicts, coefs = random_problem(1, C=1, k0=0)
        F, E = class_dict_gram(coefs, data.Y, data.sizes)
        X = coefs.X
        assert np.allclose(F, 2.0 * X @ X.T, atol=1e-12)
        assert np.allclose(E, 2.0 * data.Y @ X.T, atol=1e-12)

    def test_gradient_matches_stacked_fidelity(self):
        # d/dD of the summed (unhalved) fidelity is 2 (D F - E)
        data, dicts, coefs = random_problem(2)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        F, E = class_dict_gram(coefs, shifted, data.sizes)
        D = np.array(dicts.D)

        def f(M):
            cds = np.hsplit(M, dicts.C)
            return stacked_fidelity(shifted, cds, coefs.X, data.labels)

        fd = fd_grad(f, D, eps=1e-6)
        assert rel_err(D @ F - E, fd) < 1e-4

    def test_objective_differences_track_fidelity(self):
        # the problem objective differs from the true (summed, unhalved)
        # fidelity only by a constant: for the whole D, and for class 2's
        # problem A = F_22, B = E_2 - sum_{i != 2} D_i F_i2 with the other
        # classes held at D
        data, dicts, coefs = random_problem(3)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        rng = np.random.default_rng(4)
        F, E = class_dict_gram(coefs, shifted, data.sizes)
        D = np.array(dicts.D)
        rows = dicts.row_block(2)
        cross = F[:, rows].copy()
        cross[rows] = 0.0
        A_own, B_own = F[rows, rows], E[:, rows] - D @ cross

        def f(M):
            return stacked_fidelity(shifted, np.hsplit(M, dicts.C), coefs.X, data.labels)

        def assert_tracks(lhs, M1, M2):
            rhs = 2.0 * (f(M1) - f(M2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

        M1, M2 = rng.standard_normal(D.shape), rng.standard_normal(D.shape)
        assert_tracks(_quad_value(F, E, M1) - _quad_value(F, E, M2), M1, M2)
        P1, P2 = D.copy(), D.copy()
        P1[:, rows] = M1[:, rows]
        P2[:, rows] = M2[:, rows]
        own1, own2 = (_quad_value(A_own, B_own, P[:, rows]) for P in (P1, P2))
        assert_tracks(own1 - own2, P1, P2)


class TestCountDeadAtoms:
    def test_counts_small_diagonal(self):
        A = np.diag([1.0, 0.0, 1e-12, 0.5])
        assert count_dead_atoms(A) == 2


class TestOdlUpdate:
    def test_objective_formula(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        D = np.ones((3, 2))
        # tr(D^T D A) = 2*3 + 1*3 = 9, tr(D^T B) = sum(D*B) = 4
        assert _quad_value(A, B, D) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "A, B",
        [(np.zeros((2, 3)), np.zeros((4, 2))), (np.zeros((2, 2)), np.zeros((4, 3)))],
        ids=["A-not-square", "B-not-D"],
    )
    def test_pair_shapes_checked(self, A, B):
        with pytest.raises(DimensionError):
            odl_update(A, B, np.zeros((4, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "B"])
    def test_non_finite_pair_rejected(self, where, value):
        # the starting objective is non-finite, which raises as a NaN
        # initial dictionary does, and no numpy warning escapes
        pair = {"A": np.array([[1.0]]), "B": np.zeros((2, 1))}
        pair[where] = np.full_like(pair[where], value)
        with pytest.raises(NumericalError):
            odl_update(pair["A"], pair["B"], np.array([[1.0], [0.0]]))

    @staticmethod
    def sweeps(monkeypatch, n):
        # odl_update always runs ODL_SWEEPS sweeps
        monkeypatch.setattr(dictupdate, "ODL_SWEEPS", n)

    def test_single_atom_interior(self, monkeypatch):
        self.sweeps(monkeypatch, 1)
        b = np.array([[0.3], [0.4], [0.0]])
        D = odl_update(np.array([[1.0]]), b, np.array([[1.0], [0.0], [0.0]]))
        assert np.allclose(D, b, atol=1e-12)

    def test_single_atom_capped(self, monkeypatch):
        self.sweeps(monkeypatch, 1)
        A, B = np.array([[1.0]]), np.array([[2.0], [0.0], [0.0]])
        D = odl_update(A, B, np.array([[0.0], [1.0], [0.0]]))
        assert np.allclose(D, [[1.0], [0.0], [0.0]], atol=1e-12)

    def test_beats_projected_gradient(self, monkeypatch):
        self.sweeps(monkeypatch, 30)
        rng = np.random.default_rng(6)
        d, k, n = 6, 3, 20
        X = rng.standard_normal((k, n))
        Y = rng.standard_normal((d, n))
        A = X @ X.T
        B = Y @ X.T
        D0 = normalize_columns(rng.standard_normal((d, k)))
        D = odl_update(A, B, D0)
        ref = projected_gradient_dict(A, B, D0, steps=500)
        assert _quad_value(A, B, D) <= _quad_value(A, B, D0) + 1e-12
        assert _quad_value(A, B, D) <= quad_dict_objective(A, B, ref) + 1e-6

    def test_columns_stay_in_unit_ball(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 15))
        B = 200.0 * rng.standard_normal((5, 4))
        D0 = normalize_columns(rng.standard_normal((5, 4)))
        D = odl_update(X @ X.T, B, D0)
        norms = np.linalg.norm(D, axis=0)
        assert np.all(norms <= 1 + 1e-12)
        # strong correlation pushes every atom onto the sphere
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_dead_atoms_untouched(self, monkeypatch):
        self.sweeps(monkeypatch, 3)
        rng = np.random.default_rng(8)
        A = np.diag([1.0, 0.0, 2.0])
        B = rng.standard_normal((4, 3))
        D0 = normalize_columns(rng.standard_normal((4, 3)))
        D = odl_update(A, B, D0)
        assert np.array_equal(D[:, 1], D0[:, 1])

    def test_monotone_across_sweeps(self, monkeypatch):
        self.sweeps(monkeypatch, 1)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 12))
        Y = rng.standard_normal((7, 12))
        A, B = X @ X.T, Y @ X.T
        D = normalize_columns(rng.standard_normal((7, 5)))
        prev = _quad_value(A, B, D)
        for _ in range(4):
            D = odl_update(A, B, D)
            cur = _quad_value(A, B, D)
            assert cur <= prev + 1e-10 * max(1.0, abs(prev))
            prev = cur

    def test_bad_inputs(self):
        A, B = np.eye(2), np.zeros((3, 2))
        with pytest.raises(DimensionError):
            odl_update(A, B, np.zeros((3, 3)))
        with pytest.raises(NumericalError):
            odl_update(A, B, np.full((3, 2), np.nan))


class TestUpdateSharedDict:
    def test_exact_fit_no_penalty(self):
        rng = np.random.default_rng(10)
        d, k0, n = 8, 3, 20
        D_true = 0.9 * normalize_columns(rng.standard_normal((d, k0)))
        X0 = rng.standard_normal((k0, n))
        V = D_true @ X0
        D0 = update_shared_dict(V, X0, np.zeros((d, k0)), eta=0.0, iters=400)
        assert np.max(np.abs(D0 - D_true)) < 1e-5

    def test_zero_codes_give_zero(self):
        current = normalize_columns(np.random.default_rng(10).standard_normal((5, 3)))
        D0 = update_shared_dict(
            np.zeros((5, 8)), np.zeros((3, 8)), current, eta=0.5, iters=50
        )
        assert np.array_equal(D0, np.zeros((5, 3)))

    def test_near_optimal_when_ball_inactive(self):
        # when the unconstrained optimum already has unit-ball columns the
        # output cannot be worse than an arbitrary competitor
        rng = np.random.default_rng(11)
        d, k0, n = 6, 2, 25
        X0 = rng.standard_normal((k0, n))
        V = 0.2 * rng.standard_normal((d, n))
        eta = 0.3

        def obj(M):
            return float(np.sum((V - M @ X0) ** 2)) + eta * nuclear_norm(M)

        D0 = update_shared_dict(V, X0, np.zeros((d, k0)), eta=eta, iters=400)
        assert np.all(np.linalg.norm(D0, axis=0) <= 1 + 1e-9)
        comp = 0.1 * rng.standard_normal((d, k0))
        assert obj(D0) <= obj(comp) + 1e-8

    def test_column_rescale_never_raises_nuclear_norm(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            M = np.random.default_rng(seed).standard_normal((6, 4)) * 2.0
            norms = np.linalg.norm(M, axis=0)
            scale = np.where(norms > 1.0, norms, 1.0)
            assert nuclear_norm(M / scale) <= nuclear_norm(M) + 1e-10

    def test_rank_shrinks_with_penalty(self):
        rng = np.random.default_rng(13)
        d, k0, n = 10, 6, 30
        left = rng.standard_normal((d, 2))
        right = rng.standard_normal((2, k0))
        X0 = rng.standard_normal((k0, n))
        V = (left @ right) @ X0 + 0.05 * rng.standard_normal((d, n))
        ranks = []
        for eta in (0.01, 0.1, 1.0, 10.0):
            D0 = update_shared_dict(V, X0, np.zeros((d, k0)), eta=eta, iters=200)
            s = np.linalg.svd(D0, compute_uv=False)
            ranks.append(int(np.sum(s > 1e-8 * max(s[0], 1e-30))))
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        # heavy penalty recovers the planted rank-2 structure
        assert ranks[0] > ranks[-1]
        assert ranks[-1] <= 2

    def test_debug_log_reports_sweeps_and_stop(self, caplog):
        rng = np.random.default_rng(14)
        X0 = rng.standard_normal((3, 20))
        V = rng.standard_normal((6, 20))
        with caplog.at_level(logging.DEBUG, logger="lrsdl.dictupdate"):
            update_shared_dict(V, X0, np.zeros((6, 3)), eta=0.3, iters=3)
            best = update_shared_dict(V, X0, np.zeros((6, 3)), eta=0.3, iters=400)
            # three sweeps fall short of the converged solve's result
            update_shared_dict(V, X0, best, eta=0.3, iters=3)
        capped, stopped, rejected = [r.getMessage() for r in caplog.records]
        assert "3 of 3 sweeps, stopped on cap" in capped
        assert "of 400 sweeps, stopped on tolerance" in stopped
        assert capped.endswith("candidate kept") and stopped.endswith("candidate kept")
        assert rejected.endswith("candidate rejected")

    def test_tolerance_met_on_the_last_sweep_logs_tolerance(self, caplog):
        # this solve meets its tolerance on sweep 9: with a budget of exactly
        # 9 sweeps it stopped on the tolerance, not on the cap
        rng = np.random.default_rng(0)
        V, X0 = rng.standard_normal((6, 9)), rng.standard_normal((3, 9))
        with caplog.at_level(logging.DEBUG, logger="lrsdl.dictupdate"):
            for iters in (8, 9, 10):
                update_shared_dict(V, X0, np.zeros((6, 3)), eta=0.1, iters=iters)
        short, last, spare = [r.getMessage() for r in caplog.records]
        assert "8 of 8 sweeps, stopped on cap" in short
        assert "9 of 9 sweeps, stopped on tolerance" in last
        assert "9 of 10 sweeps, stopped on tolerance" in spare

    def test_worse_rescaled_candidate_keeps_current(self):
        # two nearly parallel code rows: the unconstrained fit needs a column
        # of norm 1.4, and rescaling it to the unit sphere fits far worse
        # than a current D0 that uses the first row alone
        rng = np.random.default_rng(15)
        d, n = 6, 30
        u = normalize_columns(rng.standard_normal((d, 1)))[:, 0]
        x1 = rng.standard_normal(n)
        X0 = np.vstack([x1, x1 + 0.01 * rng.standard_normal(n)])
        V = np.outer(u, 2.0 * X0[0] - 1.5 * X0[1])
        current = np.column_stack([0.5 * u, np.zeros(d)])

        def obj(M):
            return float(np.sum((V - M @ X0) ** 2))

        raw, _, _ = admm_nuclear(V, X0, 0.0, 1.0, 400)
        norms = np.linalg.norm(raw, axis=0)
        assert norms.max() > 1.0
        assert obj(raw) < obj(current) < obj(raw / np.maximum(norms, 1.0))
        out = update_shared_dict(V, X0, current, eta=0.0, iters=400)
        assert np.array_equal(out, current)

    def test_non_finite_value_raises(self):
        # the guard's value overflows rather than warn: eta ||D0||_* is inf
        rng = np.random.default_rng(16)
        X0 = rng.standard_normal((2, 10))
        V = rng.standard_normal((5, 10))
        current = normalize_columns(rng.standard_normal((5, 2)))
        with pytest.raises(NumericalError):
            update_shared_dict(V, X0, current, eta=1e308, iters=20)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 6),
    k0=st.integers(1, 4),
    n=st.integers(1, 12),
    eta=st.floats(0.0, 2.0),
    scale=st.floats(0.1, 5.0),
    start=st.sampled_from(["random", "planted", "converged"]),
    iters=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_step_never_raises_its_value(d, k0, n, eta, scale, start, iters, seed):
    # the current D0 is a random unit-ball dictionary, the unit-column
    # direction of the one that generated V, or a converged solve's result;
    # a candidate of a short solve, or one the rescale moved, often fits
    # worse than the last two
    rng = np.random.default_rng(seed)
    truth = scale * normalize_columns(rng.standard_normal((d, k0)))
    X0 = rng.standard_normal((k0, n))
    V = truth @ X0 + 0.1 * rng.standard_normal((d, n))
    current = {
        "random": lambda: rng.uniform(0.0, 1.0, k0)
        * normalize_columns(rng.standard_normal((d, k0))),
        "planted": lambda: truth / scale,
        "converged": lambda: update_shared_dict(
            V, X0, np.zeros((d, k0)), eta=eta, iters=400
        ),
    }[start]()

    def obj(M):
        return float(np.linalg.norm(V - M @ X0) ** 2) + eta * nuclear_norm(M)

    out = update_shared_dict(V, X0, current, eta=eta, iters=iters)
    assert out is current or np.all(np.linalg.norm(out, axis=0) <= 1.0 + 1e-12)
    assert obj(out) <= obj(current) + 1e-12 * max(1.0, obj(current))
