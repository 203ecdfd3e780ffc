"""Concrete Lie groups behind a single descriptor contract.

Elements and algebra vectors are plain numpy arrays in each group's canonical
chart: unit quaternions for SU(2), the (a, b, c) chart (c > -1) for K,
row-major 3x3 matrices for SO(3), an angle for the circle group, and plain
vectors for abelian R^n.  Dual spaces are identified with the algebra
coordinates through the Euclidean dot product.

Lift matrices of translations and adjoint/coadjoint maps are available
generically through finite differences of the product; concrete groups
override them with closed forms where those are cheap.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, TagError
from .numerics import DEFAULT_FD_STEP, fd_curve, fd_curve_columns
# unused; bench/test_bench.py::test_install_and_uninstall_wrappers wraps it
from .numerics import fd_jacobian  # noqa: F401

UNIT_TOL = 1e-9


def _vec(x, n=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if n is not None and v.size != n:
        raise TagError("expected vector of length %d, got %d" % (n, v.size))
    return v


class Group:
    """Group descriptor: chart coordinates plus the operation table."""

    name = "group"
    dim = 0        # algebra dimension
    coord_dim = 0  # chart dimension of the group manifold

    # -- required operations -------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def exp(self, xi):
        raise NotImplementedError

    def log(self, g):
        raise NotImplementedError

    def bracket(self, x, y):
        raise NotImplementedError

    # -- overridable ---------------------------------------------------------

    def check(self, g):
        """Raise DomainError if g is not a valid chart point."""
        _vec(g, self.coord_dim)

    def algebra_tangent_matrix(self):
        """coord_dim x dim matrix whose columns are d/dt exp(t e_i) at t=0."""
        return fd_curve_columns(self.exp, self.dim)

    def Ad(self, g, xi):
        xi = self.algebra_vector(xi)
        ginv = self.inv(g)
        curve = lambda t: self.mul(self.mul(g, self.exp(t * xi)), ginv)
        return self.tangent_to_algebra(fd_curve(curve))

    # -- derived helpers -----------------------------------------------------

    def algebra_vector(self, xi):
        return _vec(xi, self.dim)

    def element(self, g):
        g = _vec(g, self.coord_dim)
        self.check(g)
        return g

    def tangent_to_algebra(self, v):
        """Coordinates of an ambient tangent vector at the identity."""
        E = self.algebra_tangent_matrix()
        sol, *_ = np.linalg.lstsq(E, _vec(v, self.coord_dim), rcond=None)
        return sol

    def pairing(self, mu, xi):
        return float(np.dot(_vec(mu, self.dim), _vec(xi, self.dim)))

    def lift_matrix(self, side, g):
        """coord_dim x dim matrix, column i = d/dt (g exp(t e_i)) (left) or
        d/dt (exp(t e_i) g) (right) at t=0."""
        if side == "left":
            return fd_curve_columns(lambda xi: self.mul(g, self.exp(xi)),
                                    self.dim)
        return fd_curve_columns(lambda xi: self.mul(self.exp(xi), g), self.dim)

    def cotangent_to_algebra(self, side, g, mu):
        """Pull an ambient covector at g back to the algebra dual: the
        transpose of the translation lift from the identity."""
        return self.lift_matrix(side, g).T @ _vec(mu, self.coord_dim)

    def Ad_matrix(self, g):
        return np.column_stack([self.Ad(g, e) for e in np.eye(self.dim)])

    def coAd(self, g, mu):
        """Coadjoint transport Ad*_{g^{-1}}: <coAd(g,mu), xi> = <mu, Ad_g xi>."""
        return self.Ad_matrix(g).T @ _vec(mu, self.dim)

    def coad(self, xi, mu):
        """Infinitesimal coadjoint action: <coad(xi,mu), eta> = <mu, [eta,xi]>."""
        xi = self.algebra_vector(xi)
        mu = _vec(mu, self.dim)
        return np.array(
            [self.pairing(mu, self.bracket(e, xi)) for e in np.eye(self.dim)]
        )

    def random(self, rng, sigma=0.5):
        return self.exp(sigma * rng.standard_normal(self.dim))

    def random_algebra(self, rng, sigma=1.0):
        return sigma * rng.standard_normal(self.dim)

    def random_covector(self, rng, sigma=1.0):
        return sigma * rng.standard_normal(self.dim)


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rotation_matrix_of_quaternion(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class SU2(Group):
    """SU(2) stored as unit quaternions; the 2x2 complex view is on demand.

    Algebra vectors (r, s, t) correspond to the pure quaternion (0, (r,s,t)/2),
    so the exponential carries the half-angle convention: rot_of(exp(theta*u))
    is the rotation by angle theta about the unit axis u, and the algebra
    bracket is the vector cross product.
    """

    name = "su2"
    dim = 3
    coord_dim = 4

    def identity(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def check(self, g):
        g = _vec(g, 4)
        if abs(np.linalg.norm(g) - 1.0) > UNIT_TOL:
            raise DomainError("quaternion norm %.3e is not 1" % np.linalg.norm(g))

    def mul(self, a, b):
        q = quat_mul(_vec(a, 4), _vec(b, 4))
        return q / np.linalg.norm(q)

    def inv(self, g):
        return quat_conj(_vec(g, 4))

    def exp(self, xi):
        xi = self.algebra_vector(xi)
        theta = np.linalg.norm(xi)
        half = 0.5 * theta
        if theta < 1e-100:
            return self.identity()
        return np.concatenate(([np.cos(half)], np.sin(half) * xi / theta))

    def log(self, g):
        g = _vec(g, 4)
        vn = np.linalg.norm(g[1:])
        if vn < 1e-14:
            return np.zeros(3)
        theta = 2.0 * np.arctan2(vn, g[0])
        return theta * g[1:] / vn

    def bracket(self, x, y):
        return np.cross(self.algebra_vector(x), self.algebra_vector(y))

    def Ad(self, g, xi):
        return self.rot_of(g) @ self.algebra_vector(xi)

    def coad(self, xi, mu):
        # ad*_X(Phi) = X x Phi on su(2)* ~ R^3
        return np.cross(self.algebra_vector(xi), _vec(mu, 3))

    def algebra_tangent_matrix(self):
        return np.vstack([np.zeros(3), 0.5 * np.eye(3)])

    def tangent_to_algebra(self, v):
        return 2.0 * _vec(v, 4)[1:]

    def rot_of(self, g):
        self.check(g)
        return rotation_matrix_of_quaternion(_vec(g, 4))

    def mat2(self, g):
        w, x, y, z = _vec(g, 4)
        return np.array([
            [w - 1j * z, -y - 1j * x],
            [y - 1j * x, w + 1j * z],
        ])

    def from_mat2(self, U):
        q = np.array([
            U[0, 0].real, -U[0, 1].imag, -U[0, 1].real, -U[0, 0].imag,
        ])
        return q / np.linalg.norm(q)

    def alg_mat2(self, xi):
        r, s, t = self.algebra_vector(xi)
        # r*e1 + s*e2 + t*e3 in the traceless skew-hermitian basis
        return np.array([
            [-0.5j * t, -0.5 * s - 0.5j * r],
            [0.5 * s - 0.5j * r, 0.5j * t],
        ])

    def alg_from_mat2(self, X):
        return np.array([-2.0 * X[1, 0].imag, 2.0 * X[1, 0].real, 2.0 * X[1, 1].imag])


class KGroup(Group):
    """The group K of the Iwasawa factorization, in its (a, b, c) chart.

    Product: (a1,b1,c1)*(a2,b2,c2) = (a1,b1,c1)(1+c2) + (a2,b2,c2), valid on
    c > -1.  Views as a lower-triangular 2x2 complex matrix and as a 3x3 real
    matrix are derived from the chart.
    """

    name = "k"
    dim = 3
    coord_dim = 3

    def identity(self):
        return np.zeros(3)

    def check(self, g):
        g = _vec(g, 3)
        if g[2] <= -1.0:
            raise DomainError("K coordinate c = %.6g <= -1" % g[2])

    def mul(self, a, b):
        a = self.element(a)
        b = self.element(b)
        return a * (1.0 + b[2]) + b

    def inv(self, g):
        g = self.element(g)
        return -g / (1.0 + g[2])

    def exp(self, xi):
        a, b, c = self.algebra_vector(xi)
        f = np.expm1(c) / c if abs(c) > 1e-8 else 1.0 + 0.5 * c
        return np.array([a * f, b * f, np.expm1(c)])

    def log(self, g):
        A, B, C = self.element(g)
        c = np.log1p(C)
        f = C / c if abs(c) > 1e-8 else 1.0 + 0.5 * c
        return np.array([A / f, B / f, c])

    def bracket(self, x, y):
        k = np.array([0.0, 0.0, 1.0])
        return np.cross(k, np.cross(self.algebra_vector(x), self.algebra_vector(y)))

    def Ad(self, g, xi):
        M = self.mat3(g)
        N = self.alg_mat3(xi)
        return self.alg_from_mat3(M @ N @ self.mat3(self.inv(g)))

    def coad(self, xi, mu):
        # ad*_Y(Psi) = (k.Y) Psi - (Psi.Y) k on K* ~ R^3
        Y = self.algebra_vector(xi)
        Psi = _vec(mu, 3)
        k = np.array([0.0, 0.0, 1.0])
        return Y[2] * Psi - float(Psi @ Y) * k

    def algebra_tangent_matrix(self):
        return np.eye(3)

    def tangent_to_algebra(self, v):
        return _vec(v, 3)

    def mat3(self, g):
        a, b, c = self.element(g)
        return np.array([
            [1.0 + c, 0.0, 0.0],
            [0.0, 1.0 + c, 0.0],
            [-a, -b, 1.0],
        ])

    def from_mat3(self, M):
        return np.array([-M[2, 0], -M[2, 1], M[0, 0] - 1.0])

    def alg_mat3(self, xi):
        a, b, c = self.algebra_vector(xi)
        return np.array([
            [c, 0.0, 0.0],
            [0.0, c, 0.0],
            [-a, -b, 0.0],
        ])

    def alg_from_mat3(self, N):
        return np.array([-N[2, 0], -N[2, 1], N[0, 0]])

    def mat2(self, g):
        a, b, c = self.element(g)
        s = np.sqrt(1.0 + c)
        return np.array([
            [s, 0.0],
            [(a + 1j * b) / s, 1.0 / s],
        ])

    def from_mat2(self, M):
        c = abs(M[0, 0]) ** 2 - 1.0
        s = np.sqrt(1.0 + c)
        w = M[1, 0] * s
        return np.array([w.real, w.imag, c])

    def alg_mat2(self, xi):
        a, b, c = self.algebra_vector(xi)
        return np.array([
            [0.5 * c, 0.0],
            [a + 1j * b, -0.5 * c],
        ])


def k_convert(rep_from, rep_to, value, kind="group"):
    """Transport a K element or algebra vector between its representations
    ('vector' chart, 'mat3', 'mat2')."""
    K = KGroup()
    group = {
        "vector": (lambda v: K.element(v), lambda v: v),
        "mat3": (K.from_mat3, K.mat3),
        "mat2": (K.from_mat2, K.mat2),
    }
    algebra = {
        "vector": (lambda v: K.algebra_vector(v), lambda v: v),
        "mat3": (K.alg_from_mat3, K.alg_mat3),
        "mat2": (
            lambda M: np.array([M[1, 0].real, M[1, 0].imag, 2.0 * M[0, 0].real]),
            K.alg_mat2,
        ),
    }
    table = group if kind == "group" else algebra
    if rep_from not in table or rep_to not in table:
        raise TagError("unknown K representation")
    to_vec, from_vec = table[rep_from][0], table[rep_to][1]
    return from_vec(to_vec(value))


def hat3(xi):
    x, y, z = xi
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


class SO3(Group):
    """SO(3) in row-major 3x3 matrix coordinates."""

    name = "so3"
    dim = 3
    coord_dim = 9

    def identity(self):
        return np.eye(3).ravel()

    def check(self, g):
        M = _vec(g, 9).reshape(3, 3)
        if np.linalg.norm(M.T @ M - np.eye(3)) > 1e-8 or np.linalg.det(M) < 0:
            raise DomainError("matrix is not a rotation")

    def mul(self, a, b):
        return (_vec(a, 9).reshape(3, 3) @ _vec(b, 9).reshape(3, 3)).ravel()

    def inv(self, g):
        return _vec(g, 9).reshape(3, 3).T.ravel()

    def exp(self, xi):
        xi = self.algebra_vector(xi)
        theta = np.linalg.norm(xi)
        K = hat3(xi)
        if theta < 1e-12:
            return (np.eye(3) + K + 0.5 * K @ K).ravel()
        A = np.sin(theta) / theta
        B = (1.0 - np.cos(theta)) / theta**2
        return (np.eye(3) + A * K + B * K @ K).ravel()

    def log(self, g):
        M = _vec(g, 9).reshape(3, 3)
        cos_t = np.clip(0.5 * (np.trace(M) - 1.0), -1.0, 1.0)
        theta = np.arccos(cos_t)
        w = 0.5 * np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]])
        if theta < 1e-8:
            return w
        return theta / np.sin(theta) * w

    def bracket(self, x, y):
        return np.cross(self.algebra_vector(x), self.algebra_vector(y))

    def Ad(self, g, xi):
        return _vec(g, 9).reshape(3, 3) @ self.algebra_vector(xi)

    def algebra_tangent_matrix(self):
        return np.column_stack([hat3(e).ravel() for e in np.eye(3)])


class Circle(Group):
    """The circle group in its angle chart (kept on the real line)."""

    name = "so2"
    dim = 1
    coord_dim = 1

    def identity(self):
        return np.zeros(1)

    def mul(self, a, b):
        return _vec(a, 1) + _vec(b, 1)

    def inv(self, g):
        return -_vec(g, 1)

    def exp(self, xi):
        return self.algebra_vector(xi).copy()

    def log(self, g):
        return _vec(g, 1).copy()

    def bracket(self, x, y):
        return np.zeros(1)

    def Ad(self, g, xi):
        return self.algebra_vector(xi).copy()

    def algebra_tangent_matrix(self):
        return np.eye(1)


class Abelian(Group):
    """Additive R^n."""

    name = "rn"

    def __init__(self, n):
        self.dim = n
        self.coord_dim = n
        self.name = "r%d" % n

    def identity(self):
        return np.zeros(self.dim)

    def mul(self, a, b):
        return _vec(a, self.dim) + _vec(b, self.dim)

    def inv(self, g):
        return -_vec(g, self.dim)

    def exp(self, xi):
        return self.algebra_vector(xi).copy()

    def log(self, g):
        return _vec(g, self.dim).copy()

    def bracket(self, x, y):
        return np.zeros(self.dim)

    def Ad(self, g, xi):
        return self.algebra_vector(xi).copy()

    def algebra_tangent_matrix(self):
        return np.eye(self.dim)


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])
