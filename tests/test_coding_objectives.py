"""Property test of the smooth objectives the coding sites hand to FISTA.

Each site builds its objective with SmoothObjective.quadratic, and fista
takes its value from the gradient as g(W) - g(0) = 1/2 <W, grad(W) +
grad(0)>, only defined up to the constant g(0). On generated shapes (each
class size drawn on its own), seeds and weights, differences of that value must equal differences of the
literal objective of that site, evaluated independently:

* joint class codes: fidelity + 1/2 lambda2 Fisher from objective_terms,
* shared codes: the fidelity from objective_terms as a function of X0 plus
  the pull 1/2 lambda2 ||X0 - M0||^2 toward the warm-start mean,
* sequential class blocks: the same terms with only block c varied,
* test codes: 1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2 for each
  sample y of a batch; the test-coding objective is per column, so the
  value is taken down each code column, and each must match the literal
  objective of its own sample.

Each site's step size must be lambda_max of its Gram matrix H, built here
from the dictionaries, and must bound the Lipschitz constant of its
gradient: the spectral norm of the full linear map W -> grad(W) - grad(0),
Fisher term included.

``fista`` is replaced by a stub that records the objective and returns the
warm start, so every site sees the unchanged inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrsdl.classifier as classifier
import lrsdl.learner as learner
from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    LearnedModel,
    mean_stats,
    normalize_columns,
)
from lrsdl.gradients import objective_terms

REL = 1e-9
STEP_REL = 1e-12


def capture(mp, module):
    seen = []

    def stub(obj, lam, W0, max_iter=100, tol=1e-6):
        seen.append(obj)
        return np.array(W0, dtype=float)

    mp.setattr(module, "fista", stub)
    return seen


def assert_same_difference(v1, v2, lit1, lit2):
    scale = max(1.0, abs(lit1), abs(lit2))
    assert abs((v1 - v2) - (lit1 - lit2)) <= REL * scale


def value(obj, W):
    """1/2 <W, grad(W) + grad(0)>, one number per column for a per-column
    objective."""
    total = W * (obj.grad(W) + obj.grad(np.zeros_like(W)))
    return 0.5 * (total.sum(axis=0) if obj.per_column else total.sum())


def assert_same_differences(obj, literal, W1, W2):
    assert_same_difference(value(obj, W1), value(obj, W2), literal(W1), literal(W2))


def assert_step_size(obj, H, shape):
    top = float(np.linalg.eigvalsh(H)[-1])
    assert abs(obj.lipschitz - top) <= STEP_REL * top
    zero = obj.grad(np.zeros(shape))
    cols = []
    for i in range(int(np.prod(shape))):
        E = np.zeros(shape)
        E.flat[i] = 1.0
        cols.append((obj.grad(E) - zero).ravel())
    assert np.linalg.norm(np.column_stack(cols), 2) <= obj.lipschitz * (1 + STEP_REL)


def smooth_terms(data, dicts, X, X0, hyper):
    coefs = CoefBundle(X=X, X0=X0)
    terms = objective_terms(data, dicts, coefs, hyper)
    return terms.fidelity, terms.fisher


@pytest.mark.parametrize("shared", [False, True])
@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    k_c=st.integers(1, 3),
    k0=st.integers(1, 3),
    d=st.integers(2, 8),
    n_test=st.integers(1, 4),
    lambda2=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_site_values_match_literal_objectives(
    shared, sizes, k_c, k0, d, n_test, lambda2, seed
):
    k0 = k0 if shared else 0
    rng = np.random.default_rng(seed)
    C, N = len(sizes), sum(sizes)
    data = Dataset.from_arrays(
        normalize_columns(rng.standard_normal((d, N))), np.repeat(np.arange(1, C + 1), sizes)
    )
    dicts = DictionaryBundle(
        D=np.hstack([normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)]),
        shared_dict=0.9 * normalize_columns(rng.standard_normal((d, k0))),
        C=C,
    )
    K = dicts.K
    coefs = CoefBundle(X=rng.standard_normal((K, N)), X0=rng.standard_normal((k0, N)))
    hyper = HyperParams(lambda1=0.01, lambda2=lambda2, fista_iters=30, seed=seed % 1000)

    def draw(shape):
        return rng.standard_normal(shape), rng.standard_normal(shape)

    # Gram matrices: M(D^T D) + 2 lambda2 I for class codes, the fidelity's
    # 2 D0^T D0 plus the mean pull for shared codes, D_total^T D_total plus
    # the pull on the shared rows for test codes
    DtD = dicts.D.T @ dicts.D
    H_class = DtD * (1 + np.kron(np.eye(C), np.ones((k_c, k_c)))) + 2 * lambda2 * np.eye(K)
    H_shared = 2 * dicts.shared_dict.T @ dicts.shared_dict + lambda2 * np.eye(k0)
    H_test = dicts.D_total.T @ dicts.D_total
    H_test[K:, K:] += lambda2 * np.eye(k0)

    with pytest.MonkeyPatch.context() as mp:
        joint = capture(mp, learner)
        learner.sparse_code_train(data, dicts, coefs, hyper)
    assert len(joint) == (2 if k0 else 1)

    def class_literal(X):
        return sum(smooth_terms(data, dicts, X, coefs.X0, hyper))

    assert_same_differences(joint[0], class_literal, *draw((K, N)))
    assert_step_size(joint[0], H_class, (K, N))

    if k0:
        M0 = coefs.X0.mean(axis=1)[:, None]

        def shared_literal(W):
            fidelity, _ = smooth_terms(data, dicts, coefs.X, W, hyper)
            return fidelity + 0.5 * lambda2 * float(np.sum((W - M0) ** 2))

        assert_same_differences(joint[1], shared_literal, *draw((k0, N)))
        assert_step_size(joint[1], H_shared, (k0, N))

    with pytest.MonkeyPatch.context() as mp:
        seq = capture(mp, learner)
        learner.sparse_code_sequential(data, dicts, coefs, hyper)
    assert len(seq) == learner.SEQ_PASSES * C + (1 if k0 else 0)
    for i, obj in enumerate(seq[: learner.SEQ_PASSES * C]):
        cols = data.class_columns(i % C + 1)

        def block_literal(W, cols=cols):
            X = coefs.X.copy()
            X[:, cols] = W
            return sum(smooth_terms(data, dicts, X, coefs.X0, hyper))

        n_c = sizes[i % C]
        assert_same_differences(obj, block_literal, *draw((K, n_c)))
        assert_step_size(obj, H_class, (K, n_c))
    if k0:
        assert_step_size(seq[-1], H_shared, (k0, N))

    model = LearnedModel(
        dict_bundle=dicts, mean_stats=mean_stats(coefs, data.labels), hyper=hyper, trace=()
    )
    Y = rng.standard_normal((d, n_test))
    Yn = Y / np.linalg.norm(Y, axis=0)
    m0 = model.mean_stats.shared_mean
    with pytest.MonkeyPatch.context() as mp:
        test = capture(mp, classifier)
        classifier.encode_test(Yn, model)
    assert len(test) == 1

    assert_step_size(test[0], H_test, (K + k0, n_test))
    W1, W2 = draw((K + k0, n_test))
    v1, v2 = value(test[0], W1), value(test[0], W2)
    assert v1.shape == v2.shape == (n_test,)
    for j in range(n_test):

        def test_literal(x, yn=Yn[:, j]):
            fit_term = 0.5 * float(np.sum((yn - dicts.D_total @ x) ** 2))
            return fit_term + 0.5 * lambda2 * float(np.sum((x[K:] - m0) ** 2))

        assert_same_difference(
            v1[j], v2[j], test_literal(W1[:, j]), test_literal(W2[:, j])
        )
