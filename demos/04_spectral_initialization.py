"""The long-memory spectral initialization, from scratch.

The diagonal spectrum is read off a structured 2N x 2N matrix: -1/2 on the
diagonal plus an exactly skew-symmetric part S.  Its eigenvalues are
-1/2 + i*mu, and the Hermitian matrix i*S has eigenvalues +-mu, so one
Hermitian eigensolve (numpy's eigvalsh) gives the magnitudes.  The result
is cross-checked against invariants that do not involve any eigensolver.
"""

import numpy as np

from diagssm import skew_hippo_lambda, skew_hippo_matrix, symmetric_eigenvalues

for n in (1, 4, 16):
    spec = skew_hippo_lambda(n)
    print(f"N = {n}")
    print("  Re(lambda):", sorted({float(v) for v in spec.lambda_re}))
    print("  Im(lambda):", np.array2string(spec.lambda_im, precision=4))
    # invariant: sum of Im^2 equals the sum of squared super-diagonal entries
    s = skew_hippo_matrix(n)
    target = np.sum(np.triu(s, 1) ** 2)
    print("  sum Im^2 = %.6f vs Frobenius sum %.6f (rel err %.1e)" % (
        np.sum(spec.lambda_im ** 2), target,
        abs(np.sum(spec.lambda_im ** 2) - target) / target))
    # invariant: log det S (by LU) equals 2 * sum(log mu)
    _, logdet = np.linalg.slogdet(s + 0.5 * np.eye(2 * n))
    print("  2 sum log Im = %.6f vs log det S %.6f" % (
        2 * np.sum(np.log(spec.lambda_im)), logdet))

# the eigensolver on its own: a matrix with known spectrum
print("\nsymmetric_eigenvalues on diag(9, 4, 1) conjugated by a rotation:")
theta = 0.7
q = np.array([[np.cos(theta), -np.sin(theta), 0],
              [np.sin(theta), np.cos(theta), 0],
              [0, 0, 1.0]])
m = q @ np.diag([9.0, 4.0, 1.0]) @ q.T
print("  recovered:", symmetric_eigenvalues(m))

# why the imaginary parts matter: they set the oscillation rates that let a
# kernel keep information from many timesteps without exploding
spec = skew_hippo_lambda(8)
print("\noscillation periods (steps per cycle) at delta = 0.01:")
print(" ", np.array2string(2 * np.pi / (spec.lambda_im * 0.01), precision=1))
