"""Property test of the smooth objectives the coding sites hand to FISTA.

Each site builds its objective with SmoothObjective.quadratic, and fista
takes its value from the gradient as g(W) - g(0) = 1/2 <W, grad(W) +
grad(0)>, only defined up to the constant g(0). On generated shapes, seeds
and weights, differences of that value must equal differences of the
literal objective of that site, evaluated independently:

* joint class codes: fidelity + 1/2 lambda2 Fisher from objective_terms,
* shared codes: the fidelity from objective_terms as a function of X0 plus
  the pull 1/2 lambda2 ||X0 - M0||^2 toward the warm-start mean,
* sequential class blocks: the same terms with only block c varied,
* test codes: 1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2 for each
  sample y of a batch; the test-coding objective is per column, so the
  value is taken down each code column, and each must match the literal
  objective of its own sample.

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


def smooth_terms(data, dicts, X, X0, hyper):
    coefs = CoefBundle(X=X, X0=X0, k_c=dicts.k_c, n_c=data.n_c)
    terms = objective_terms(data, dicts, coefs, hyper)
    return terms.fidelity, terms.fisher


@pytest.mark.parametrize("shared", [False, True])
@settings(max_examples=25, deadline=None)
@given(
    C=st.integers(1, 3),
    n_c=st.integers(1, 4),
    k_c=st.integers(1, 3),
    k0=st.integers(1, 3),
    d=st.integers(2, 8),
    n_test=st.integers(1, 4),
    lambda2=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_site_values_match_literal_objectives(
    shared, C, n_c, k_c, k0, d, n_test, lambda2, seed
):
    k0 = k0 if shared else 0
    rng = np.random.default_rng(seed)
    N = C * n_c
    data = Dataset.from_arrays(
        normalize_columns(rng.standard_normal((d, N))), np.repeat(np.arange(1, C + 1), n_c)
    )
    dicts = DictionaryBundle(
        class_dicts=tuple(normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)),
        shared_dict=0.9 * normalize_columns(rng.standard_normal((d, k0))),
    )
    K = dicts.K
    coefs = CoefBundle(
        X=rng.standard_normal((K, N)), X0=rng.standard_normal((k0, N)), k_c=k_c, n_c=n_c
    )
    hyper = HyperParams(lambda1=0.01, lambda2=lambda2, fista_iters=30, seed=seed % 1000)

    def draw(shape):
        return rng.standard_normal(shape), rng.standard_normal(shape)

    with pytest.MonkeyPatch.context() as mp:
        joint = capture(mp, learner)
        learner.sparse_code_train(data, dicts, coefs, hyper)
    assert len(joint) == (2 if k0 else 1)

    def class_literal(X):
        return sum(smooth_terms(data, dicts, X, coefs.X0, hyper))

    assert_same_differences(joint[0], class_literal, *draw((K, N)))

    if k0:
        M0 = coefs.X0.mean(axis=1)[:, None]

        def shared_literal(W):
            fidelity, _ = smooth_terms(data, dicts, coefs.X, W, hyper)
            return fidelity + 0.5 * lambda2 * float(np.sum((W - M0) ** 2))

        assert_same_differences(joint[1], shared_literal, *draw((k0, N)))

    with pytest.MonkeyPatch.context() as mp:
        seq = capture(mp, learner)
        learner.sparse_code_sequential(data, dicts, coefs, hyper)
    assert len(seq) == learner.SEQ_PASSES * C + (1 if k0 else 0)
    for i, obj in enumerate(seq[: learner.SEQ_PASSES * C]):
        cols = coefs.class_columns(i % C + 1)

        def block_literal(W, cols=cols):
            X = coefs.X.copy()
            X[:, cols] = W
            return sum(smooth_terms(data, dicts, X, coefs.X0, hyper))

        assert_same_differences(obj, block_literal, *draw((K, n_c)))

    model = LearnedModel(
        dict_bundle=dicts, mean_stats=mean_stats(coefs, data.labels), hyper=hyper, trace=()
    )
    Y = rng.standard_normal((d, n_test))
    Yn = Y / np.linalg.norm(Y, axis=0)
    m0 = model.mean_stats.shared_mean
    with pytest.MonkeyPatch.context() as mp:
        test = capture(mp, classifier)
        classifier.encode_test(Y, model)
    assert len(test) == 1

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
