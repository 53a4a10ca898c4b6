"""Property tests of the block-diagonal operator M(A) = A + blockdiag(A).

data.block_diagonal builds every class-block matrix of the fidelity: the
coding Gram pair (build_augmented_gram), the own-class residual
(residual_matrices, the shared-layer target V = Y - 1/2 D M(X)) and the
class-dictionary Gram pair behind
_update_class_dicts. On generated C, n_c, k_c and k0 (C=1, n_c=1, k0=0
and all-zero code rows included) each is checked against the class-by-
class loop in oracles.py that it replaces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    block_diagonal,
    normalize_columns,
)
from lrsdl.dictupdate import QuadDictProblem, odl_update
from lrsdl.gradients import build_augmented_gram, residual_matrices
from lrsdl.learner import ODL_SWEEPS, _update_class_dicts

from oracles import (
    augmented_gram_loop,
    block_diagonal_loop,
    rel_err,
    residuals_loop,
    update_class_dicts_residual,
)

shapes = dict(
    C=st.integers(1, 4),
    n_c=st.integers(1, 4),
    k_c=st.integers(1, 3),
    k0=st.integers(0, 2),
    d=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)


def problem(C, n_c, k_c, k0, d, seed, dead=()):
    """Random data, unit-column dictionaries and codes; the code rows
    listed in ``dead`` (taken modulo K) are all zero."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, C + 1), n_c)
    data = Dataset.from_arrays(rng.standard_normal((d, C * n_c)), labels)
    dicts = DictionaryBundle(
        class_dicts=tuple(
            normalize_columns(rng.standard_normal((d, k_c)), warn=False)
            for _ in range(C)
        ),
        shared_dict=normalize_columns(rng.standard_normal((d, k0)), warn=False),
    )
    X = rng.standard_normal((C * k_c, C * n_c))
    X[[r % (C * k_c) for r in dead]] = 0.0
    coefs = CoefBundle(X=X, X0=rng.standard_normal((k0, C * n_c)), k_c=k_c, n_c=n_c)
    return data, dicts, coefs


@settings(max_examples=60, deadline=None)
@given(
    C=st.integers(1, 4),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_diagonal_matches_loop(C, p, q, seed):
    A = np.random.default_rng(seed).standard_normal((C * p, C * q))
    out = block_diagonal(A, C)
    assert out.shape == A.shape
    assert np.array_equal(out, block_diagonal_loop(A, C))


@settings(max_examples=60, deadline=None)
@given(**shapes)
def test_augmented_gram_matches_class_loop(C, n_c, k_c, k0, d, seed):
    data, dicts, coefs = problem(C, n_c, k_c, k0, d, seed)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    gram = build_augmented_gram(dicts, shifted, n_c)
    combined, corr = augmented_gram_loop(dicts.class_dicts, shifted, n_c)
    assert rel_err(gram.combined, combined) < 1e-12
    assert rel_err(gram.corr, corr) < 1e-12
    assert np.array_equal(gram.combined, gram.combined.T)


@settings(max_examples=60, deadline=None)
@given(**shapes)
def test_residual_matrices_match_class_loop(C, n_c, k_c, k0, d, seed):
    data, dicts, coefs = problem(C, n_c, k_c, k0, d, seed)
    V = residual_matrices(data, dicts, coefs)
    want_bar, want_tilde = residuals_loop(data.Y, dicts.class_dicts, coefs.X, n_c)
    assert V.shape == data.Y.shape
    assert rel_err(V, 0.5 * (want_bar + want_tilde)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(**shapes, dead=st.lists(st.integers(0, 11), max_size=3))
def test_update_class_dicts_matches_residual_reference(C, n_c, k_c, k0, d, seed, dead):
    data, dicts, coefs = problem(C, n_c, k_c, k0, d, seed, dead)
    shifted = data.Y - dicts.shared_dict @ coefs.X0

    def solve(A, B, Dc):
        return odl_update(QuadDictProblem(A=A, B=B), Dc, sweeps=ODL_SWEEPS)

    want = update_class_dicts_residual(
        shifted, dicts.class_dicts, coefs.X, n_c, solve
    )
    got = _update_class_dicts(data, dicts, coefs)
    assert rel_err(got.D, np.hstack(want)) < 1e-12
    assert np.array_equal(got.shared_dict, dicts.shared_dict)
    # an atom without code energy is left as it was
    for r in set(r % (C * k_c) for r in dead):
        assert np.array_equal(got.D[:, r], dicts.D[:, r])
