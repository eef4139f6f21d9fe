"""Independent brute-force oracles used to pin expected values.

Everything here works by explicit index loops or dense matrices, so it
shares no code path with the library implementations it checks; only the
error classes and the ``DEFAULT`` tolerances come from the library.
"""

import math
from functools import reduce
from itertools import product

import numpy as np

from vnchain import DEFAULT, DimensionMismatchError, NotAProjectorError


def flat_index(indices, dims):
    """Composite index with the leftmost subsystem varying slowest."""
    idx = 0
    for i, d in zip(indices, dims):
        idx = idx * d + i
    return idx


def brute_partial_trace(matrix, dims, keep):
    """Partial trace by summing matrix entries one by one."""
    dims = list(dims)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    d_keep = int(np.prod(keep_dims)) if keep_dims else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row_keep in product(*(range(d) for d in keep_dims)):
        for col_keep in product(*(range(d) for d in keep_dims)):
            total = 0.0 + 0.0j
            for t in product(*(range(d) for d in traced_dims)):
                row = [0] * n
                col = [0] * n
                for pos, i in zip(keep, row_keep):
                    row[pos] = i
                for pos, i in zip(keep, col_keep):
                    col[pos] = i
                for pos, i in zip(traced, t):
                    row[pos] = i
                    col[pos] = i
                total += matrix[flat_index(row, dims), flat_index(col, dims)]
            out[flat_index(row_keep, keep_dims), flat_index(col_keep, keep_dims)] = total
    return out


def brute_partial_scalar_product(bra, position, amplitudes, dims):
    """<bra| contraction on one subsystem by explicit summation."""
    dims = list(dims)
    n = len(dims)
    keep = [i for i in range(n) if i != position]
    keep_dims = [dims[i] for i in keep]
    out = np.zeros(int(np.prod(keep_dims)), dtype=complex)
    for rest in product(*(range(d) for d in keep_dims)):
        total = 0.0 + 0.0j
        for s in range(dims[position]):
            full = [0] * n
            for pos, i in zip(keep, rest):
                full[pos] = i
            full[position] = s
            total += np.conj(bra[s]) * amplitudes[flat_index(full, dims)]
        out[flat_index(rest, keep_dims)] = total
    return out


def brute_kron(a, b):
    """Kronecker product by index arithmetic."""
    if a.ndim == 1:
        out = np.zeros(a.shape[0] * b.shape[0], dtype=complex)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i * b.shape[0] + j] = x * y
        return out
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def projector_rank(p, tol=1e-8):
    """Rank of a projector counted from its eigenvalues."""
    return int(np.sum(np.linalg.eigvalsh(p) > 1.0 - tol))


def is_projector(p):
    """The dense projector check: square, ||P - P^dag|| <= ``DEFAULT.herm``
    and ||P P - P|| <= ``DEFAULT.orth`` * d, with the product P P formed."""
    p = np.asarray(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    return bool(
        np.linalg.norm(p - p.conj().T) <= DEFAULT.herm
        and np.linalg.norm(p @ p - p) <= DEFAULT.orth * p.shape[0]
    )


def brute_apply_local(op, values, dims, axis):
    """Apply ``op`` (m x d) to one axis of a flat tensor over ``dims``.

    Every output entry is summed term by term; a density matrix is passed
    flattened, with ``dims + dims`` and the row or column axis.
    """
    dims = list(dims)
    out_dims = dims[:axis] + [op.shape[0]] + dims[axis + 1 :]
    out = np.zeros(int(np.prod(out_dims)), dtype=complex)
    for idx in product(*(range(d) for d in out_dims)):
        total = 0.0 + 0.0j
        for s in range(dims[axis]):
            src = list(idx)
            src[axis] = s
            total += op[idx[axis], s] * values[flat_index(src, dims)]
        out[flat_index(idx, out_dims)] = total
    return out


def brute_density(vectors, weights=None):
    """Dense sum_k w_k |psi_k><psi_k| formed entry by entry.

    ``vectors`` is one amplitude vector (giving |psi><psi|) or a list of
    them; ``weights`` default to 1 each.
    """
    vectors = [np.asarray(vectors)] if np.ndim(vectors) == 1 else [np.asarray(v) for v in vectors]
    weights = [1.0] * len(vectors) if weights is None else list(weights)
    d = vectors[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for w, v in zip(weights, vectors):
        for i in range(d):
            for j in range(d):
                out[i, j] += w * v[i] * np.conj(v[j])
    return out


def projector_onto(block):
    """Dense projector Q Q^dag of an orthonormal (d, r) block Q, summed column
    by column, entry by entry."""
    return brute_density(list(np.asarray(block).T))


def brute_ideal_isometry(measured, pointer_states):
    """The isometry of an ideal premeasurement, column m = sum_k E_k |e_m> (x) |b_k>,
    summed by Kronecker products."""
    d_a = measured.dim
    columns = []
    for e in np.eye(d_a, dtype=complex):
        col = np.zeros(d_a * pointer_states.dim, dtype=complex)
        for k, branch in enumerate(measured.branches):
            col += np.kron(branch.projector @ e, pointer_states.vectors[k])
        columns.append(col)
    return np.column_stack(columns)


def brute_dressed_isometry(ideal, dressings):
    """sum_k (V_k (x) W_k F_k) V + sum_{unmapped j} (I (x) F_j) V for the
    ideal's isometry V, each term a Kronecker product."""
    eye_a = np.eye(ideal.object_dim, dtype=complex)
    dressed = np.zeros_like(ideal.isometry)
    for k, (v_a, w_b) in enumerate(dressings):
        f_k = ideal.pointer.projector(ideal.mapping[k])
        dressed += np.kron(v_a, w_b @ f_k) @ ideal.isometry
    mapped = set(ideal.mapping.values())
    for j, branch in enumerate(ideal.pointer.branches):
        if j not in mapped:
            dressed += np.kron(eye_a, branch.projector) @ ideal.isometry
    return dressed


def brute_eigenbasis_projectors(eigenvalues, blocks, complement=None):
    """(eigenvalue, projector) pairs of sum_k o_k Q_k Q_k^dag, sorted ascending.

    Each projector is summed column by column, entry by entry; ``complement``
    adds a branch with that eigenvalue whose projector is I minus their sum.
    """
    d = np.asarray(blocks[0]).shape[0]
    pairs = []
    for value, block in zip(eigenvalues, blocks):
        proj = np.zeros((d, d), dtype=complex)
        for column in np.asarray(block, dtype=complex).T:
            proj += brute_density(column)
        pairs.append((float(value), proj))
    if complement is not None:
        rest = np.eye(d, dtype=complex)
        for _, proj in pairs:
            rest -= proj
        pairs.append((float(complement), rest))
    return sorted(pairs, key=lambda pair: pair[0])


def embed_operator(op, subsystem, lay):
    """The D x D matrix of a one-subsystem operator: identities
    Kronecker-multiplied around it, in layout order."""
    op = np.asarray(op, dtype=complex)
    d = lay.dim_of(subsystem)
    if op.shape != (d, d):
        raise DimensionMismatchError(
            f"operator of shape {op.shape} does not fit subsystem {subsystem!r} of dimension {d}"
        )
    factors = [
        op if label == subsystem else np.eye(dim, dtype=complex) for label, dim in lay.subsystems
    ]
    return reduce(np.kron, factors)


def brute_trace_distance(a, b):
    """(1/2) sum |lambda| over the eigenvalues of the dense difference a - b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b)))))


def brute_cross_block_norm(rho, projectors, subsystem, lay):
    """max ||P_j rho P_k||_F over j != k, each P embedded densely."""
    embs = [embed_operator(p, subsystem, lay) for p in projectors]
    return max(
        float(np.linalg.norm(a @ rho @ b))
        for j, a in enumerate(embs)
        for k, b in enumerate(embs)
        if j != k
    )


def check_dense_spectral_family(pairs):
    """Every dense check of (eigenvalue, projector) pairs as an observable's
    branches, raising the error class the check of a bad family calls for.

    Entries finite (ValueError); eigenvalues finite and ascending by more
    than ``DEFAULT.eig_merge`` (ValueError), no more branches than dimensions
    (DimensionMismatchError); each projector square of one shape
    (DimensionMismatchError), Hermitian, idempotent and of rank >= 1, each
    pair orthogonal and all summing to the identity (NotAProjectorError).
    O(n^2 d^3) for n branches in dimension d.
    """
    if not pairs:
        raise DimensionMismatchError("observable needs at least one branch")
    projectors = [np.array(p, dtype=complex) for _, p in pairs]
    if not all(np.isfinite(p).all() for p in projectors):
        raise ValueError("array has NaN or infinite entries")
    eigenvalues = [float(e) for e, _ in pairs]
    d = projectors[0].shape[0]
    if not all(math.isfinite(e) for e in eigenvalues):
        raise ValueError(f"branch eigenvalues {eigenvalues} are not all finite")
    if any(b - a <= DEFAULT.eig_merge for a, b in zip(eigenvalues, eigenvalues[1:])):
        raise ValueError(f"branch eigenvalues {eigenvalues} are not ascending")
    if len(eigenvalues) > d:
        raise DimensionMismatchError("more branches than dimensions")
    scale = DEFAULT.orth * max(1, d)
    total = np.zeros((d, d), dtype=complex)
    for k, p in enumerate(projectors):
        if p.shape != (d, d):
            raise DimensionMismatchError("branch projectors differ in shape")
        if not is_projector(p):
            raise NotAProjectorError(f"branch {k} projector is not a projector")
        if np.real(np.trace(p)) < 0.5:
            raise NotAProjectorError(f"branch {k} projector has rank 0")
        total += p
    for i, a in enumerate(projectors):
        for j in range(i + 1, len(projectors)):
            if np.linalg.norm(a @ projectors[j]) > scale:
                raise NotAProjectorError(f"branches {i} and {j} are not orthogonal")
    if np.linalg.norm(total - np.eye(d)) > scale:
        raise NotAProjectorError("branch projectors do not sum to the identity")
