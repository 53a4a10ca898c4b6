"""Property tests of the block-diagonal operator M(A) = A + blockdiag(A).

data.block_diagonal builds every class-block matrix of the fidelity: the
coding Gram pair (build_augmented_gram), the own-class residual
(residual_matrices, the shared-layer target V = Y - 1/2 D M(X)) and the
class-dictionary Gram pair behind
_update_class_dicts. On generated layouts, each class size drawn on its
own in 1..4, and generated k_c and k0 (C=1, a class of one sample, k0=0
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
from lrsdl.dictupdate import odl_update
from lrsdl.gradients import build_augmented_gram, residual_matrices
from lrsdl.learner import _update_class_dicts

from oracles import (
    augmented_gram_loop,
    block_diagonal_loop,
    rel_err,
    residuals_loop,
    update_class_dicts_residual,
)

class_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
shapes = dict(
    sizes=class_sizes,
    k_c=st.integers(1, 3),
    k0=st.integers(0, 2),
    d=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)


def problem(sizes, k_c, k0, d, seed, dead=()):
    """Random data in the class layout `sizes`, unit-column dictionaries and
    codes; the code rows listed in ``dead`` (taken modulo K) are all zero."""
    rng = np.random.default_rng(seed)
    C, N = len(sizes), sum(sizes)
    labels = np.repeat(np.arange(1, C + 1), sizes)
    data = Dataset.from_arrays(rng.standard_normal((d, N)), labels)
    dicts = DictionaryBundle(
        D=np.hstack([normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)]),
        shared_dict=normalize_columns(rng.standard_normal((d, k0))),
        C=C,
    )
    X = rng.standard_normal((C * k_c, N))
    X[[r % (C * k_c) for r in dead]] = 0.0
    coefs = CoefBundle(X=X, X0=rng.standard_normal((k0, N)))
    return data, dicts, coefs


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(0, 3),
    sizes=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_diagonal_matches_loop(p, sizes, seed):
    A = np.random.default_rng(seed).standard_normal((len(sizes) * p, sum(sizes)))
    out = block_diagonal(A, sizes)
    assert out.shape == A.shape
    assert np.array_equal(out, block_diagonal_loop(A, sizes))


@settings(max_examples=60, deadline=None)
@given(**shapes)
def test_augmented_gram_matches_class_loop(sizes, k_c, k0, d, seed):
    data, dicts, coefs = problem(sizes, k_c, k0, d, seed)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    G, corr = build_augmented_gram(dicts, shifted, data.sizes, 0.0)
    combined, corr_loop = augmented_gram_loop(np.hsplit(dicts.D, dicts.C), shifted, sizes)
    assert rel_err(G, combined) < 1e-12
    assert rel_err(corr, corr_loop) < 1e-12
    assert np.array_equal(G, G.T)


@settings(max_examples=60, deadline=None)
@given(**shapes)
def test_residual_matrices_match_class_loop(sizes, k_c, k0, d, seed):
    data, dicts, coefs = problem(sizes, k_c, k0, d, seed)
    V = residual_matrices(data, dicts, coefs)
    want_bar, want_tilde = residuals_loop(data.Y, np.hsplit(dicts.D, dicts.C), coefs.X, sizes)
    assert V.shape == data.Y.shape
    assert rel_err(V, 0.5 * (want_bar + want_tilde)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(**shapes, dead=st.lists(st.integers(0, 11), max_size=3))
def test_update_class_dicts_matches_residual_reference(sizes, k_c, k0, d, seed, dead):
    data, dicts, coefs = problem(sizes, k_c, k0, d, seed, dead)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    want = update_class_dicts_residual(
        shifted, np.hsplit(dicts.D, dicts.C), coefs.X, sizes, odl_update
    )
    got = _update_class_dicts(data, dicts, coefs)
    assert rel_err(got.D, np.hstack(want)) < 1e-12
    assert np.array_equal(got.shared_dict, dicts.shared_dict)
    # an atom without code energy is left as it was
    for r in set(r % (len(sizes) * k_c) for r in dead):
        assert np.array_equal(got.D[:, r], dicts.D[:, r])
