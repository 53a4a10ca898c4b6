"""Domain containers, statistics, and data generation.

Conventions used throughout the package:

* samples are columns; a data matrix is d x N,
* class labels are integers 1..C; a Dataset is class contiguous (C blocks
  of n_c = N / C columns) and reads C and n_c off its labels when built,
* a model holds C class dictionaries (d x k_c each) plus one shared
  dictionary (d x k0, possibly empty), concatenated as D = [D_1 .. D_C]
  and D_total = [D, D_shared],
* codes for the class dictionaries are K x N with K = C * k_c, codes for
  the shared dictionary are k0 x N; their blocks are the Dataset's n_c
  columns and the DictionaryBundle's k_c rows (gradients.check_shapes).

All containers are frozen dataclasses holding read-only arrays.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    DomainError,
    ParameterError,
)


def check_integer(name, value, low):
    """Raise ParameterError unless value is an integer (numpy integers
    pass, bool does not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


def _freeze(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# below this a column norm may have lost precision to subnormal squares
_MIN_PLAIN_NORM = np.sqrt(np.finfo(float).tiny)


def normalize_columns(M, warn=True):
    """Scale each column of M to unit Euclidean norm.

    Where squaring the entries overflowed or underflowed (norm not finite,
    zero, or below _MIN_PLAIN_NORM) while the column is nonzero, the column
    is scaled by its largest magnitude first, so every nonzero finite
    column comes out unit norm. Zero columns stay zero.
    """
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(M, axis=0)
    peak = np.max(np.abs(M), axis=0, initial=0.0)
    zero = peak == 0
    redo = ~zero & ~((norms >= _MIN_PLAIN_NORM) & np.isfinite(norms))
    out = M / np.where(zero | redo, 1.0, norms)
    if redo.any():
        S = M[:, redo] / peak[redo]
        out[:, redo] = S / np.linalg.norm(S, axis=0)
    if zero.any() and warn:
        warnings.warn(f"{int(zero.sum())} zero column(s) left unnormalized")
    return out


@dataclass(frozen=True)
class Dataset:
    """Samples Y (d x N, finite) with labels 1..C in the class layout (C
    contiguous blocks of n_c = N / C columns), from which C and n_c are read
    when it is built. ``permutation[j]`` is the input column that ended up
    at sorted position j (identity when the input was already sorted)."""

    Y: np.ndarray
    labels: np.ndarray
    permutation: np.ndarray
    C: int = field(init=False)
    n_c: int = field(init=False)

    def __post_init__(self):
        Y = _freeze(self.Y)
        if Y.ndim != 2:
            raise DimensionError(f"expected 2-d sample matrix, got {Y.shape}")
        if not np.isfinite(Y).all():
            raise DataError("sample matrix contains NaN or Inf")
        # checked before the cast to int, which would truncate 1.7 to 1
        C = check_class_layout(self.labels, Y.shape[1])
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "labels", _freeze(self.labels, dtype=int))
        object.__setattr__(self, "permutation", _freeze(self.permutation, dtype=int))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "n_c", Y.shape[1] // C)

    @property
    def d(self):
        return self.Y.shape[0]

    @property
    def N(self):
        return self.Y.shape[1]

    def class_columns(self, c):
        """Column slice of class c (1-based)."""
        if not 1 <= c <= self.C:
            raise DomainError(f"class {c} outside 1..{self.C}")
        return slice((c - 1) * self.n_c, c * self.n_c)

    def class_block(self, c):
        return self.Y[:, self.class_columns(c)]

    @classmethod
    def from_arrays(cls, Y, labels):
        """Dataset from samples and labels in any column order: integral
        float labels become int64 and the columns are sorted by label."""
        Y = np.asarray(Y, dtype=float)
        labels = np.asarray(labels)
        if Y.ndim != 2:
            raise DimensionError(f"expected 2-d sample matrix, got {Y.shape}")
        if labels.shape != Y.shape[1:]:
            raise DimensionError(f"labels of shape {labels.shape} for {Y.shape[1]} columns")
        if labels.size == 0:
            raise DomainError("dataset has no samples")
        if labels.dtype == bool:
            raise DataError("labels must be integers, not booleans")
        if not np.issubdtype(labels.dtype, np.integer):
            flabels = np.asarray(labels, dtype=float)
            if not np.isfinite(flabels).all():
                raise DataError("labels must be finite")
            if not np.all(flabels == np.round(flabels)):
                raise DataError("labels must be integers")
            labels = flabels
        if not np.all((labels >= -(2**63)) & (labels < 2**63)):
            raise DataError("labels must lie in the int64 range")
        labels = labels.astype(np.int64)
        C = int(labels.max())
        if labels.min() < 1:
            raise DataError("labels must be >= 1")
        # memory follows the sample count, not the largest label
        present, counts = np.unique(labels, return_counts=True)
        if present.size < C:
            missing = int(np.argmax(present != np.arange(1, present.size + 1))) + 1
            raise DomainError(f"class {missing} has zero samples")
        if len(set(counts.tolist())) != 1:
            raise DomainError(f"unequal class sizes {counts.tolist()}")
        perm = np.argsort(labels, kind="stable")
        return cls(Y=Y[:, perm], labels=labels[perm], permutation=perm)


@dataclass(frozen=True)
class DictionaryBundle:
    """C class dictionaries plus one shared dictionary.

    Class dictionary columns must have norm in (0, 1 + 1e-9]; shared
    dictionary columns may be zero but never exceed unit norm.
    """

    class_dicts: tuple
    shared_dict: np.ndarray
    D: np.ndarray = field(init=False, repr=False)
    D_total: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cds = tuple(_freeze(Dc) for Dc in self.class_dicts)
        if not cds:
            raise DimensionError("need at least one class dictionary")
        d, k_c = cds[0].shape
        for i, Dc in enumerate(cds):
            if Dc.ndim != 2 or Dc.shape != (d, k_c):
                raise DimensionError(
                    f"class dictionary {i + 1} has shape {Dc.shape}, expected {(d, k_c)}"
                )
            if not np.isfinite(Dc).all():
                raise DataError(f"class dictionary {i + 1} contains NaN or Inf")
            norms = np.linalg.norm(Dc, axis=0)
            if (norms <= 0).any() or (norms > 1 + 1e-9).any():
                raise DataError(
                    f"class dictionary {i + 1} column norms outside (0, 1]"
                )
        shared = _freeze(self.shared_dict)
        if shared.ndim != 2 or shared.shape[0] != d:
            raise DimensionError(
                f"shared dictionary shape {shared.shape} inconsistent with d={d}"
            )
        if not np.isfinite(shared).all():
            raise DataError("shared dictionary contains NaN or Inf")
        if (np.linalg.norm(shared, axis=0) > 1 + 1e-9).any():
            raise DataError("shared dictionary column norm exceeds 1")
        object.__setattr__(self, "class_dicts", cds)
        object.__setattr__(self, "shared_dict", shared)
        object.__setattr__(self, "D", _freeze(np.hstack(cds)))
        object.__setattr__(self, "D_total", _freeze(np.hstack(cds + (shared,))))

    @property
    def d(self):
        return self.class_dicts[0].shape[0]

    @property
    def C(self):
        return len(self.class_dicts)

    @property
    def k_c(self):
        return self.class_dicts[0].shape[1]

    @property
    def k0(self):
        return self.shared_dict.shape[1]

    @property
    def K(self):
        return self.C * self.k_c

    def class_dict(self, c):
        return self.class_dicts[c - 1]

    def row_block(self, i):
        """Row slice of the code matrix owned by class dictionary i (1-based)."""
        return slice((i - 1) * self.k_c, i * self.k_c)


@dataclass(frozen=True)
class CoefBundle:
    """Sparse codes: X (K x N) on the class dictionaries, X0 (k0 x N) on
    the shared dictionary; the class layout is the data's and the dictionaries'."""

    X: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        X = _freeze(self.X)
        X0 = _freeze(self.X0)
        if X.ndim != 2 or X0.ndim != 2:
            raise DimensionError("codes must be 2-d")
        if X0.shape[1] != X.shape[1]:
            raise DimensionError("X and X0 column counts differ")
        if not (np.isfinite(X).all() and np.isfinite(X0).all()):
            raise DataError("codes contain NaN or Inf")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "X0", X0)

    @property
    def K(self):
        return self.X.shape[0]

    @property
    def k0(self):
        return self.X0.shape[0]

    @property
    def N(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class MeanStats:
    """Column means of the training codes.

    class_means stacks the per-class means of X as columns (K x C),
    shared_mean is the mean of X0.
    """

    class_means: np.ndarray
    shared_mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_means", _freeze(self.class_means))
        object.__setattr__(self, "shared_mean", _freeze(self.shared_mean))
        if self.class_means.ndim != 2:
            raise DimensionError("class_means must be K x C")

    def class_mean(self, c):
        return self.class_means[:, c - 1]


def class_means(X, C):
    """Per-class means (rows x C) of the columns of X in the class layout:
    C contiguous blocks of equal size."""
    return X.reshape(X.shape[0], C, -1).mean(axis=2)


def fisher_mean_map(blocks, n, C, lambda2):
    """Class-mean part of the Fisher gradient as a (blocks n) x blocks
    matrix Q: for codes W made of `blocks` class blocks of n columns with
    means M_b, out of C classes (a sequential solve holds one block), W Q
    has the column lambda2 (sum_b M_b / C - 2 M_b) per block, which every
    column of block b gets. Q = (E / n) lambda2 (J / C - 2 I), with E the
    class-block indicator, J all-ones and I the identity; the map is linear
    and symmetric."""
    E = np.repeat(np.eye(blocks), n, axis=0) / n
    return E @ (lambda2 * (np.ones((blocks, blocks)) / C - 2.0 * np.eye(blocks)))


def block_diagonal(A, C):
    """The C equal diagonal blocks of A (block c: row block c, column
    block c) with zeros elsewhere, as a matrix of A's shape."""
    r, s = A.shape
    idx = np.arange(C)
    out = np.zeros((C, r // C, C, s // C))
    out[idx, :, idx] = np.reshape(A, out.shape)[idx, :, idx]
    return out.reshape(r, s)


def check_class_layout(labels, N):
    """Class count C of a label vector of length N in the class layout
    (labels 1..C in contiguous blocks of N / C columns each). Raises
    DataError unless the labels are integers (bool is not), DimensionError
    for a wrong length, DomainError for any other layout."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (N,):
        raise DimensionError(f"labels length {labels.shape} does not match {N} columns")
    C = int(labels.max(initial=0))
    if C < 1 or N % C or not np.array_equal(labels, np.repeat(np.arange(1, C + 1), N // C)):
        raise DomainError("labels must be 1..C in contiguous blocks of equal size")
    return C


def mean_stats(coefs, labels):
    """MeanStats from a CoefBundle and its column labels, which give C;
    DomainError unless the K code rows split into C blocks."""
    C = check_class_layout(labels, coefs.N)
    if coefs.K % C:
        raise DomainError(f"{coefs.K} code rows do not split into {C} class blocks")
    return MeanStats(
        class_means=class_means(coefs.X, C),
        shared_mean=coefs.X0.mean(axis=1),
    )


@dataclass(frozen=True)
class HyperParams:
    """Regularization weights and iteration budgets."""

    lambda1: float = 0.001
    lambda2: float = 0.01
    eta: float = 0.1
    w: float = 0.5
    outer_iters: int = 15
    fista_iters: int = 100
    admm_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        weights = (self.lambda1, self.lambda2, self.eta)
        if not all(0 <= v < np.inf for v in weights):  # also rejects NaN
            raise ParameterError(f"regularization weights must be finite, >= 0: {weights}")
        if not 0 <= self.w <= 1:
            raise ParameterError(f"w={self.w} outside [0, 1]")
        for name in ("outer_iters", "fista_iters", "admm_iters"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class IterationRecord:
    """One row of the training trace. Seconds are cumulative wall time."""

    iteration: int
    objective: float
    fidelity: float
    l1: float
    fisher: float
    nuclear: float
    seconds: float


@dataclass(frozen=True)
class LearnedModel:
    """Everything classification needs: dictionaries, code means, hypers."""

    dict_bundle: DictionaryBundle
    mean_stats: MeanStats
    hyper: HyperParams
    trace: tuple
    aborted: bool = False

    def __post_init__(self):
        dicts, means = self.dict_bundle, self.mean_stats
        got = (means.class_means.shape, means.shared_mean.shape)
        want = ((dicts.K, dicts.C), (dicts.k0,))
        if got != want:
            raise DimensionError(f"code means of shapes {got}, dictionaries need {want}")

    @property
    def d(self):
        return self.dict_bundle.d

    @property
    def C(self):
        return self.dict_bundle.C


def generate_synthetic(
    C,
    d,
    n_c,
    k_c,
    k0,
    shared_rank,
    noise_sigma,
    seed,
    shared_scale=1.0,
):
    """Draw a planted-model dataset and return (Dataset, ground-truth bundle).

    Each class gets a random unit-column dictionary; the shared dictionary
    is a product of Gaussian factors so its rank is exactly shared_rank.
    Every sample is D_c a + D_shared b + noise where a is a per-sample
    sparse code with free signs and b rides on one dataset-level sparse
    base vector with small per-sample jitter (the shared component is
    supposed to look alike across samples). Labels come out contiguous.
    """
    for name, value in dict(C=C, d=d, n_c=n_c, k_c=k_c).items():
        check_integer(name, value, 1)
    for name, value in dict(k0=k0, shared_rank=shared_rank, seed=seed).items():
        check_integer(name, value, 0)
    if shared_rank > min(d, k0):
        raise ParameterError(
            f"shared_rank={shared_rank} must lie in [0, min(d={d}, k0={k0})]"
        )
    if not 0 <= noise_sigma < np.inf:  # also rejects NaN
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not np.isfinite(shared_scale):
        raise ParameterError(f"shared_scale must be finite, got {shared_scale}")
    rng = np.random.default_rng(seed)

    class_dicts = []
    for _ in range(C):
        Dc = rng.standard_normal((d, k_c))
        class_dicts.append(normalize_columns(Dc, warn=False))

    if k0 > 0 and shared_rank > 0:
        left = rng.standard_normal((d, shared_rank))
        right = rng.standard_normal((shared_rank, k0))
        shared = normalize_columns(left @ right, warn=False)
    else:
        shared = np.zeros((d, k0))

    if k0 > 0:
        s0 = max(1, int(round(0.6 * k0)))
        support = rng.choice(k0, size=s0, replace=False)
        base = rng.standard_normal(s0)
    Y = np.empty((d, C * n_c))
    labels = np.repeat(np.arange(1, C + 1), n_c)
    s_c = max(1, int(round(0.5 * k_c)))
    for c in range(C):
        block = np.zeros((d, n_c))
        for j in range(n_c):
            a = np.zeros(k_c)
            idx = rng.choice(k_c, size=s_c, replace=False)
            a[idx] = rng.standard_normal(s_c)
            block[:, j] = class_dicts[c] @ a
            if k0 > 0:
                b = np.zeros(k0)
                b[support] = shared_scale * (base + 0.3 * rng.standard_normal(s0))
                block[:, j] += shared @ b
        Y[:, c * n_c : (c + 1) * n_c] = block
    if noise_sigma > 0:
        # a huge finite noise_sigma overflows here: report it as that
        # parameter's fault, not as a bad sample matrix
        with np.errstate(over="ignore"):
            Y = Y + noise_sigma * rng.standard_normal(Y.shape)
        if not np.isfinite(Y).all():
            raise ParameterError(f"noise_sigma={noise_sigma} overflows the samples")

    dataset = Dataset.from_arrays(Y, labels)
    truth = DictionaryBundle(class_dicts=tuple(class_dicts), shared_dict=shared)
    return dataset, truth

