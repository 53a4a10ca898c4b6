"""Domain containers, statistics, and data generation.

Conventions used throughout the package:

* samples are columns; a data matrix is d x N,
* class labels are integers 1..C; a Dataset is class contiguous (C blocks
  of n_1, ..., n_C columns) and reads C and these sizes, the one class
  layout every class-blocked operation takes, off its labels when built,
* a model holds C class dictionaries (d x k_c each) side by side in one
  d x K matrix D = [D_1 .. D_C], which the DictionaryBundle stores (class c
  is the view of its row_block(c) columns), plus one shared dictionary
  (d x k0, possibly empty); D_total = [D, D_shared],
* codes for the class dictionaries are K x N with K = C * k_c, codes for
  the shared dictionary are k0 x N; their blocks are the Dataset's class
  columns and the DictionaryBundle's k_c rows (gradients.check_shapes).

All containers are frozen dataclasses holding read-only arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, DomainError, ParameterError
from .errors import check_labels, check_number, check_real


def _freeze(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# below this a column norm may have lost precision to subnormal squares
_MIN_PLAIN_NORM = np.sqrt(np.finfo(float).tiny)


def _class_index(c, C):
    """0-based index of the 1-based class c; DomainError outside 1..C."""
    if not 1 <= c <= C:
        raise DomainError(f"class {c} outside 1..{C}")
    return c - 1


def normalize_columns(M):
    """Scale each column of M to unit Euclidean norm.

    Where squaring the entries overflowed or underflowed (norm not finite,
    zero, or below _MIN_PLAIN_NORM) while the column is nonzero, the column
    is scaled by its largest magnitude first, so every nonzero finite
    column comes out unit norm. Zero columns stay zero. M is a matrix or
    one vector (DimensionError otherwise) of real, finite numbers
    (errors.check_real; DataError otherwise).
    """
    M = check_real(M, "matrix")
    if M.ndim not in (1, 2):
        raise DimensionError(f"expected a matrix or a vector, got shape {M.shape}")
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(M, axis=0)
    peak = np.max(np.abs(M), axis=0, initial=0.0)
    zero = peak == 0
    redo = ~zero & ~((norms >= _MIN_PLAIN_NORM) & np.isfinite(norms))
    out = M / np.where(zero | redo, 1.0, norms)
    if redo.any():
        S = M[:, redo] / peak[redo]
        out[:, redo] = S / np.linalg.norm(S, axis=0)
    return out


@dataclass(frozen=True)
class Dataset:
    """Samples Y (d x N, finite) with labels 1..C in the class layout (C
    contiguous blocks of sizes[c - 1] columns), from which C and sizes are
    read when it is built. Y and labels are its only settable fields; use
    :meth:`from_arrays` for samples in any column order."""

    Y: np.ndarray
    labels: np.ndarray
    C: int = field(init=False)
    sizes: tuple = field(init=False)

    def __post_init__(self):
        Y = _freeze(check_real(self.Y, "sample matrix"))
        if Y.ndim != 2:
            raise DimensionError(f"expected 2-d sample matrix, got {Y.shape}")
        # checked before the cast to int, which would truncate 1.7 to 1
        sizes = check_class_layout(self.labels, Y.shape[1])
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "labels", _freeze(self.labels, dtype=int))
        object.__setattr__(self, "C", len(sizes))
        object.__setattr__(self, "sizes", sizes)

    @property
    def d(self):
        return self.Y.shape[0]

    @property
    def N(self):
        return self.Y.shape[1]

    def class_columns(self, c):
        """Column slice of class c (1-based)."""
        start = sum(self.sizes[: _class_index(c, self.C)])
        return slice(start, start + self.sizes[c - 1])

    def class_block(self, c):
        return self.Y[:, self.class_columns(c)]

    @classmethod
    def from_arrays(cls, Y, labels):
        """Dataset from samples and labels in any column order: finite integral
        real floats within int64 become integers, labels must pass
        errors.check_labels, and a stable sort by label keeps each class's
        column order; the Dataset checks Y, casts labels to int64, checks layout."""
        Y = np.asarray(Y)
        labels = np.asarray(labels)
        if Y.ndim != 2:
            raise DimensionError(f"expected 2-d sample matrix, got {Y.shape}")
        if labels.shape != Y.shape[1:]:
            raise DimensionError(f"labels of shape {labels.shape} for {Y.shape[1]} columns")
        # checked before the cast, which would truncate, wrap or warn
        if np.issubdtype(labels.dtype, np.floating):
            if not np.isfinite(labels).all():
                raise DataError("labels must be finite")
            if not np.all(labels == np.round(labels)):
                raise DataError("labels must be integers")
            if not np.all((labels >= -(2**63)) & (labels < 2**63)):
                raise DataError("labels must lie in the int64 range")
            labels = labels.astype(np.int64)
        check_labels(labels)
        order = np.argsort(labels, kind="stable")
        return cls(Y=Y[:, order], labels=labels[order])


@dataclass(frozen=True)
class DictionaryBundle:
    """C class dictionaries side by side in one d x K matrix D = [D_1 .. D_C]
    (K = C k_c, class c owning the k_c columns of row_block(c)) plus one
    shared dictionary.

    Class dictionary columns must have norm in (0, 1 + 1e-9]; shared
    dictionary columns may be zero but never exceed unit norm.
    """

    D: np.ndarray
    shared_dict: np.ndarray
    C: int
    D_total: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_number("C", self.C, 1, integer=True)
        D, shared = np.asarray(self.D), check_real(self.shared_dict, "shared dictionary")
        if D.ndim != 2 or not D.shape[1] or D.shape[1] % self.C:
            raise DimensionError(
                f"class dictionaries D of shape {D.shape} must be 2-d with K a positive"
                f" multiple of C={self.C}"
            )
        if shared.ndim != 2 or shared.shape[0] != D.shape[0]:
            raise DimensionError(
                f"shared dictionary shape {shared.shape} inconsistent with d={D.shape[0]}"
            )
        check_real(D[:0], "class dictionaries")  # dtype only: the norms catch NaN, Inf by class
        with np.errstate(over="ignore"):  # a norm that overflows is too long
            norms, shared_norms = np.linalg.norm(D, axis=0), np.linalg.norm(shared, axis=0)
        bad = ~((norms > 0) & (norms <= 1 + 1e-9))  # NaN and Inf columns too
        if bad.any():
            j = int(np.argmax(bad))
            fault = "column norms outside (0, 1]"
            if not np.isfinite(D[:, j]).all():
                fault = "contains NaN or Inf"
            raise DataError(f"class dictionary {j // (D.shape[1] // self.C) + 1} {fault}")
        if (shared_norms > 1 + 1e-9).any():
            raise DataError("shared dictionary column norm exceeds 1")
        object.__setattr__(self, "D", _freeze(D))
        object.__setattr__(self, "shared_dict", _freeze(shared))
        object.__setattr__(self, "D_total", _freeze(np.hstack((D, shared))))

    @property
    def d(self):
        return self.D.shape[0]

    @property
    def k_c(self):
        return self.K // self.C

    @property
    def k0(self):
        return self.shared_dict.shape[1]

    @property
    def K(self):
        return self.D.shape[1]

    def class_dict(self, c):
        """Columns of class c (1-based): a view of D."""
        return self.D[:, self.row_block(c)]

    def row_block(self, c):
        """Row slice of the code matrix owned by class dictionary c (1-based),
        which is also its column slice of D."""
        return slice(_class_index(c, self.C) * self.k_c, c * self.k_c)


@dataclass(frozen=True)
class CoefBundle:
    """Sparse codes: X (K x N) on the class dictionaries, X0 (k0 x N) on
    the shared dictionary; the class layout is the data's and the dictionaries'."""

    X: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        X, X0 = np.asarray(self.X), np.asarray(self.X0)
        if X.ndim != 2 or X0.ndim != 2:
            raise DimensionError("codes must be 2-d")
        if X0.shape[1] != X.shape[1]:
            raise DimensionError("X and X0 column counts differ")
        object.__setattr__(self, "X", _freeze(check_real(X, "codes X")))
        object.__setattr__(self, "X0", _freeze(check_real(X0, "codes X0")))

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
        for name in ("class_means", "shared_mean"):
            object.__setattr__(self, name, _freeze(check_real(getattr(self, name), name)))
        if self.class_means.ndim != 2:
            raise DimensionError("class_means must be K x C")

    def class_mean(self, c):
        return self.class_means[:, _class_index(c, self.class_means.shape[1])]


def class_means(X, sizes):
    """Per-class means (rows x C) of the columns of X in the class layout
    `sizes`: C contiguous blocks, one column slice each."""
    o = np.cumsum((0, *sizes))
    return np.column_stack([X[:, a:b].mean(axis=1) for a, b in zip(o, o[1:])])


def fisher_mean_map(sizes, N, lambda2):
    """Class-mean part of the Fisher gradient as a pair (Q, S): for codes W
    of classes in blocks of n_b = sizes[b] columns with means M_b, out of N
    samples (a sequential solve holds one block), W Q has the column
    lambda2 (sum_b n_b M_b / N - 2 M_b) per block, and the spread S = E^T
    gives it every column of block b. Q = E diag(1/n) lambda2 (n 1^T / N - 2 I),
    E the class-block indicator; the map W Q S is symmetric and negative
    semidefinite."""
    n = np.asarray(sizes, dtype=float)
    S = np.repeat(np.eye(n.size), sizes, axis=1)  # contiguous: the faster product
    return (S.T / n) @ (lambda2 * ((n / N)[:, None] - 2.0 * np.eye(n.size))), S


def block_diagonal(A, sizes):
    """The C diagonal blocks of A (block c: the c-th of C equal row blocks and
    of the column blocks of `sizes`) with zeros elsewhere, in A's shape."""
    out, k, o = np.zeros(A.shape), A.shape[0] // len(sizes), np.cumsum((0, *sizes))
    for c, (a, b) in enumerate(zip(o, o[1:])):
        out[c * k : (c + 1) * k, a:b] = A[c * k : (c + 1) * k, a:b]
    return out


def check_class_layout(labels, N):
    """Class sizes (n_1, ..., n_C) of a label vector of length N in the
    class layout (labels 1..C in contiguous blocks, each class present).
    Raises DataError for labels that fail errors.check_labels,
    DimensionError for a wrong length, and DomainError for no samples, a
    missing class (named) or blocks that are not contiguous."""
    check_labels(labels)
    labels = np.asarray(labels)
    if labels.shape != (N,):
        raise DimensionError(f"labels length {labels.shape} does not match {N} columns")
    if not N:
        raise DomainError("there are no samples")
    # memory follows N, not the largest label; the plain form adds 1 MB (numpy 2.4)
    present, sizes = np.unique(labels, return_counts=True)
    if present.size < present[-1]:
        missing = int(np.argmax(present != np.arange(1, present.size + 1))) + 1
        raise DomainError(f"class {missing} has zero samples")
    if not np.array_equal(labels, np.repeat(present, sizes)):
        raise DomainError("labels must be 1..C in contiguous blocks")
    return tuple(sizes.tolist())


def mean_stats(coefs, labels):
    """MeanStats from a CoefBundle and its column labels, which give the
    class layout; DomainError unless the K code rows split into C blocks."""
    sizes = check_class_layout(labels, coefs.N)
    if coefs.K % len(sizes):
        raise DomainError(f"{coefs.K} code rows do not split into {len(sizes)} class blocks")
    return MeanStats(
        class_means=class_means(coefs.X, sizes),
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
        for name in ("lambda1", "lambda2", "eta"):
            check_number(name, getattr(self, name), 0)
        check_number("w", self.w, 0, 1)
        for name in ("outer_iters", "fista_iters", "admm_iters"):
            check_number(name, getattr(self, name), 1, integer=True)
        check_number("seed", self.seed, 0, integer=True)


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
        check_number(name, value, 1, integer=True)
    for name, value in dict(k0=k0, shared_rank=shared_rank, seed=seed).items():
        check_number(name, value, 0, integer=True)
    if shared_rank > min(d, k0):
        raise ParameterError(
            f"shared_rank={shared_rank} must lie in [0, min(d={d}, k0={k0})]"
        )
    check_number("noise_sigma", noise_sigma, 0)
    check_number("shared_scale", shared_scale, -np.inf)
    rng = np.random.default_rng(seed)

    D = np.hstack([normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)])

    if k0 > 0 and shared_rank > 0:
        left = rng.standard_normal((d, shared_rank))
        right = rng.standard_normal((shared_rank, k0))
        shared = normalize_columns(left @ right)
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
            block[:, j] = D[:, c * k_c : (c + 1) * k_c] @ a
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
    truth = DictionaryBundle(D=D, shared_dict=shared, C=C)
    return dataset, truth

