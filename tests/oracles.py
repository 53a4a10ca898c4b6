"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from the mathematical definitions
with plain loops and dense algebra, not by calling the package internals,
so the two routes can disagree when one of them is wrong.
"""

import numpy as np


def cd_lasso(A, b, lam, max_sweeps=20000, tol=1e-13):
    """Coordinate descent for min_x 1/2 ||A x - b||^2 + lam ||x||_1."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = A.shape[1]
    G = A.T @ A
    h = A.T @ b
    x = np.zeros(n)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(n):
            rho = h[j] - G[j] @ x + G[j, j] * x[j]
            if G[j, j] <= 0:
                new = 0.0
            else:
                new = np.sign(rho) * max(abs(rho) - lam, 0.0) / G[j, j]
            delta = max(delta, abs(new - x[j]))
            x[j] = new
        if delta < tol:
            break
    return x


def lasso_objective(A, b, lam, x):
    r = A @ x - b
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


def fd_grad(f, X, eps=1e-6):
    """Central finite differences of a scalar function of a matrix/vector."""
    X = np.asarray(X, dtype=float)
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += eps
        Xm[idx] -= eps
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * eps)
        it.iternext()
    return g


def rel_err(approx, exact):
    denom = max(1e-12, float(np.linalg.norm(exact)))
    return float(np.linalg.norm(approx - exact)) / denom


def svt_eigh(M, tau):
    """Singular value shrinkage built on eigh of M^T M (no np.linalg.svd)."""
    M = np.asarray(M, dtype=float)
    if min(M.shape) == 0:
        return M.copy()
    evals, V = np.linalg.eigh(M.T @ M)
    evals = np.maximum(evals, 0.0)
    s = np.sqrt(evals)
    out = np.zeros_like(M)
    for i in range(len(s)):
        if s[i] <= tau or s[i] < 1e-13:
            continue
        u = (M @ V[:, i]) / s[i]
        out += (s[i] - tau) * np.outer(u, V[:, i])
    return out


def nuclear_norm(M):
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False).sum())


def span_basis(M):
    """Orthonormal basis of the column span of M, from its SVD with the
    rank tolerance of np.linalg.matrix_rank."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if not s.size:
        return U
    return U[:, s > s[0] * max(M.shape) * np.finfo(float).eps]


def shared_span_capture(planted, D0):
    """Share of the planted shared span's energy that span(D0) holds:
    ||Q^T U||_F^2 / r for orthonormal bases U of span(planted), of rank r,
    and Q of span(D0). It is the mean squared cosine of the principal
    angles between the spans: 1 when span(D0) holds the planted span, and
    k0 / d on average for a random k0-dim subspace of R^d."""
    U, Q = span_basis(planted), span_basis(D0)
    return float(np.sum((Q.T @ U) ** 2) / U.shape[1])


def subgrad_nuclear_descent(V, X, eta, steps=100000, seed=0):
    """Best-iterate subgradient descent on ||V - D X||_F^2 + eta ||D||_*."""
    rng = np.random.default_rng(seed)
    d, k = V.shape[0], X.shape[0]
    D = 0.01 * rng.standard_normal((d, k))
    XXt = X @ X.T
    VXt = V @ X.T
    # 1/(smooth Lipschitz) scale keeps early steps stable
    base = 0.5 / (2.0 * np.linalg.norm(XXt, 2) + eta + 1.0)

    def obj(D):
        return float(np.sum((V - D @ X) ** 2)) + eta * nuclear_norm(D)

    best = obj(D)
    for t in range(1, steps + 1):
        U, s, Vt = np.linalg.svd(D, full_matrices=False)
        sub = U @ Vt
        g = 2.0 * (D @ XXt - VXt) + eta * sub
        D = D - (base / np.sqrt(t)) * g
        cur = obj(D)
        if cur < best:
            best = cur
    return best


def admm_fixed_sweeps(V, X, eta, rho, sweeps):
    """ADMM for ||V - D X||_F^2 + eta ||D||_* run for exactly `sweeps`
    sweeps from Z = U = 0, with a fresh linear solve every sweep and no
    stopping rule. Returns D, Z, U of the last sweep and Z of the one
    before it."""
    d, k = V.shape[0], X.shape[0]
    G = 2.0 * (X @ X.T) + rho * np.eye(k)
    VXt2 = 2.0 * (V @ X.T)
    Z = np.zeros((d, k))
    U = np.zeros((d, k))
    Z_prev = Z
    for _ in range(sweeps):
        D = np.linalg.solve(G, (VXt2 + rho * (Z - U)).T).T
        P, s, Qt = np.linalg.svd(D + U, full_matrices=False)
        Z_prev, Z = Z, (P * np.maximum(s - eta / rho, 0.0)) @ Qt
        U = U + D - Z
    return D, Z, U, Z_prev


def projected_gradient_dict(A, B, D0, steps=500):
    """Projected gradient for min tr(D^T D A) - 2 tr(D^T B), cols <= 1."""
    D = np.array(D0, dtype=float)
    L = 2.0 * np.linalg.norm(A, 2) + 1e-12
    for _ in range(steps):
        D = D - (2.0 * (D @ A - B)) / (1.01 * L)
        norms = np.sqrt((D * D).sum(axis=0))
        for j in range(D.shape[1]):
            if norms[j] > 1.0:
                D[:, j] /= norms[j]
    return D


def quad_dict_objective(A, B, D):
    return float(np.sum((D @ A) * D) - 2.0 * np.sum(D * B))


def column_means_by_class(X, labels):
    labels = np.asarray(labels, dtype=int)
    classes = np.unique(labels)
    means = {int(c): X[:, labels == c].mean(axis=1) for c in classes}
    return X.mean(axis=1), means


def fddl_objective(Y, class_dicts, X, labels, lam1, lam2):
    """Literal evaluation of the class-dictionary objective (no shared part):

        1/2 sum_c [ ||Y_c - D X_c||^2 + ||Y_c - D_c X_c^c||^2
                    + sum_{i != c} ||D_i X_c^i||^2 ]
        + lam1 ||X||_1
        + lam2/2 [ sum_c ( ||X_c - M_c||^2 - ||M_c - M||^2 ) + ||X||^2 ]
    """
    labels = np.asarray(labels, dtype=int)
    C = len(class_dicts)
    k_c = class_dicts[0].shape[1]
    D = np.hstack(class_dicts)
    fid = 0.0
    for c in range(1, C + 1):
        cols = labels == c
        Yc = Y[:, cols]
        Xc = X[:, cols]
        fid += np.sum((Yc - D @ Xc) ** 2)
        fid += np.sum((Yc - class_dicts[c - 1] @ Xc[(c - 1) * k_c : c * k_c]) ** 2)
        for i in range(1, C + 1):
            if i == c:
                continue
            fid += np.sum((class_dicts[i - 1] @ Xc[(i - 1) * k_c : i * k_c]) ** 2)
    m, means = column_means_by_class(X, labels)
    fisher = float(np.sum(X * X))
    for c in range(1, C + 1):
        cols = labels == c
        n_c = int(cols.sum())
        fisher += float(np.sum((X[:, cols] - means[c][:, None]) ** 2))
        fisher -= n_c * float(np.sum((means[c] - m) ** 2))
    return 0.5 * fid + lam1 * float(np.abs(X).sum()) + 0.5 * lam2 * fisher


def lrsdl_objective_literal(Y, class_dicts, D0, X, X0, labels, lam1, lam2, eta):
    """Literal evaluation of the full objective with the shared dictionary.

    The shared part shifts the fidelity data (Ys = Y - D0 X0), adds
    ||X0 - M0||^2 to the discriminative code penalty, an l1 term on X0,
    and a nuclear norm on D0.
    """
    Ys = Y - D0 @ X0
    total = fddl_objective(Ys, class_dicts, X, labels, lam1, lam2)
    total += lam1 * float(np.abs(X0).sum())
    if X0.shape[0]:
        m0 = X0.mean(axis=1)
        total += 0.5 * lam2 * float(np.sum((X0 - m0[:, None]) ** 2))
    total += eta * nuclear_norm(D0)
    return total


def stacked_fidelity(Y, class_dicts, X, labels):
    """1/2 sum_c ||Yhat_c - Dhat X_c||^2 with the stacked matrices built
    explicitly: Yhat_c = [Y_c; Y_c; 0; ...; 0] (zero target for every
    other class's rows) and Dhat = [D; 0 .. D_c .. 0; pattern], following
    the block layout that makes the fidelity one least-squares term."""
    labels = np.asarray(labels, dtype=int)
    C = len(class_dicts)
    d = Y.shape[0]
    k_c = class_dicts[0].shape[1]
    D = np.hstack(class_dicts)
    total = 0.0
    for c in range(1, C + 1):
        cols = labels == c
        Yc = Y[:, cols]
        # stacked target: full-dictionary copy, own-class copy, zeros rows
        blocks = [Yc, Yc] + [np.zeros((d, Yc.shape[1])) for _ in range(C - 1)]
        Yhat = np.vstack(blocks)
        rows = [D]
        own = np.zeros((d, C * k_c))
        own[:, (c - 1) * k_c : c * k_c] = class_dicts[c - 1]
        rows.append(own)
        for i in range(1, C + 1):
            if i == c:
                continue
            other = np.zeros((d, C * k_c))
            other[:, (i - 1) * k_c : i * k_c] = class_dicts[i - 1]
            rows.append(other)
        Dhat = np.vstack(rows)
        total += float(np.sum((Yhat - Dhat @ X[:, cols]) ** 2))
    return 0.5 * total


def mfista_one_block(grad, value, L, lam, W0, max_iter, tol):
    """Monotone FISTA (Beck & Teboulle 2009) with the whole matrix as one
    safeguard block and the function restart scheme (O'Donoghue & Candes
    2015), written out with Python scalars: a candidate is kept only if it
    does not raise g + lam ||.||_1, a rejected one restarts the momentum
    (Z = W, t = 1), and the solve stops on an accepted step whose relative
    change is below tol. It evaluates the gradient at every momentum point
    and g through its own value function, so it needs no linearity: the
    direct reference for prox.fista.
    """
    W = np.array(W0, dtype=float)
    Z = W
    t = 1.0

    def shrink(V, tau):
        return np.sign(V) * np.maximum(np.abs(V) - tau, 0.0)

    F = value(W) + lam * np.abs(W).sum()
    for _ in range(max_iter):
        cand = shrink(Z - grad(Z) / L, lam / L)
        F_cand = value(cand) + lam * np.abs(cand).sum()
        if F_cand > F:
            Z, t = W, 1.0
            continue
        F = F_cand
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = cand + ((t - 1.0) / t_new) * (cand - W)
        rel = np.linalg.norm(cand - W) / max(1.0, np.linalg.norm(W))
        W, t = cand, t_new
        if rel < tol:
            break
    return W


def fista_one_product(grad, L, lam, W0, max_iter, tol):
    """The same restarted monotone FISTA for a quadratic g, with one
    gradient call per iteration, written out with Python scalars in
    prox-point form: it keeps P(M) = M - grad(M) / L of the iterate and of
    the momentum point, whose prox point is the same affine combination of
    kept prox points as the point itself. The candidate is
    P(Z) - clip(P(Z), -lam / L, lam / L), its l1 term lam ||cand||_1 is
    read off that clip as L <cand, clip>, and g(W) - g(0) =
    1/2 <W, grad(W) + grad(0)>. Operation for operation this is the
    arithmetic prox.fista uses with the whole matrix as one block, so the
    two agree bit for bit. Returns the final iterate and the number of
    iterations run.
    """
    W = np.array(W0, dtype=float)
    GW = grad(W)
    G0 = grad(np.zeros_like(W))
    tau = lam / L
    P_W = W - GW / L
    P_Z = P_W
    t = 1.0
    F = 0.5 * float(np.vdot(W, GW + G0)) + lam * float(np.vdot(W, np.sign(W)))
    for k in range(1, max_iter + 1):
        clip = np.minimum(np.maximum(P_Z, -tau), tau)
        cand = P_Z - clip
        G = grad(cand)
        F_cand = 0.5 * float(np.vdot(cand, G + G0)) + L * float(np.vdot(cand, clip))
        if F_cand > F:
            P_Z, t = P_W, 1.0
            continue
        F = F_cand
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        b = (t - 1.0) / t_new
        P_C = cand - G / L
        P_Z = P_C + b * (P_C - P_W)
        rel = np.linalg.norm(cand - W) / max(1.0, np.linalg.norm(W))
        W, P_W, t = cand, P_C, t_new
        if rel < tol:
            break
    return W, k


def class_column_slices(sizes):
    """Column slice of each class block of `sizes` columns, in order."""
    ends = np.cumsum(sizes)
    return [slice(int(e) - n, int(e)) for n, e in zip(sizes, ends)]


def block_diagonal_loop(A, sizes):
    """The C diagonal blocks of A, equal row blocks and column blocks of
    `sizes` columns, copied one by one into zeros."""
    A = np.asarray(A, dtype=float)
    p = A.shape[0] // len(sizes)
    out = np.zeros_like(A)
    for c, cols in enumerate(class_column_slices(sizes)):
        rows = slice(c * p, (c + 1) * p)
        out[rows, cols] = A[rows, cols]
    return out


def augmented_gram_loop(class_dicts, shifted, sizes):
    """(combined, corr) of the stacked fidelity, one class block at a time:
    D^T D and D^T Ys plus D_c^T D_c in diagonal block c and D_c^T Ys_c in
    row block c, column block c of sizes[c] columns."""
    D = np.hstack(class_dicts)
    k_c = class_dicts[0].shape[1]
    gram = D.T @ D
    combined = 0.5 * (gram + gram.T)
    corr = D.T @ shifted
    for c, (Dc, cols) in enumerate(zip(class_dicts, class_column_slices(sizes))):
        rows = slice(c * k_c, (c + 1) * k_c)
        Gc = Dc.T @ Dc
        combined[rows, rows] += 0.5 * (Gc + Gc.T)
        corr[rows, cols] += Dc.T @ shifted[:, cols]
    return combined, corr


def residuals_loop(Y, class_dicts, X, sizes):
    """(Ybar, Ytilde): Y - D X and, class by class over column blocks of
    `sizes`, Y_c - D_c X_c^c."""
    k_c = class_dicts[0].shape[1]
    Ybar = Y - np.hstack(class_dicts) @ X
    Ytilde = np.empty_like(Y)
    for c, (Dc, cols) in enumerate(zip(class_dicts, class_column_slices(sizes))):
        Ytilde[:, cols] = Y[:, cols] - Dc @ X[c * k_c : (c + 1) * k_c, cols]
    return Ybar, Ytilde


def update_class_dicts_residual(shifted, class_dicts, X, sizes, solve):
    """Gauss-Seidel refit of the class dictionaries on shifted data Ys in
    column blocks of `sizes`, with the subproblem of class c built from a
    maintained residual R = Ys - D X:

        A = X^c X^c^T + X_c^c X_c^c^T + sum_{i != c} X_i^c X_i^c^T
        B = (R + D_c X^c) X^c^T + Ys_c X_c^c^T

    (X^c the rows of class dictionary c, X_i^c their class-i columns).
    solve(A, B, D_c) returns the new D_c, which is folded into R before
    the next class is visited.
    """
    C = len(class_dicts)
    k_c = class_dicts[0].shape[1]
    slices = class_column_slices(sizes)
    dicts = [np.array(Dc, dtype=float) for Dc in class_dicts]
    R = shifted - np.hstack(dicts) @ X
    for c in range(C):
        Xc = X[c * k_c : (c + 1) * k_c]
        Xcc = Xc[:, slices[c]]
        A = Xc @ Xc.T + Xcc @ Xcc.T
        for i in range(C):
            if i != c:
                blk = Xc[:, slices[i]]
                A += blk @ blk.T
        B = (R + dicts[c] @ Xc) @ Xc.T + shifted[:, slices[c]] @ Xcc.T
        new = solve(0.5 * (A + A.T), B, dicts[c])
        R += (dicts[c] - new) @ Xc
        dicts[c] = new
    return dicts
