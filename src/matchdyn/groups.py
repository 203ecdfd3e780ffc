"""Concrete Lie groups behind a single descriptor contract.

Elements and algebra vectors are plain numpy arrays in each group's canonical
chart: unit quaternions for SU(2), the (a, b, c) chart (c > -1) for K,
row-major 3x3 matrices for SO(3), an angle for the circle group, and plain
vectors for abelian R^n.  Dual spaces are identified with the algebra
coordinates through the Euclidean dot product.

Lift matrices of translations and the adjoint matrix are available
generically through finite differences of the product; the generic
``Ad_matrix`` reads its conjugation curves in algebra coordinates through
``log``, the chart inverse.  Every group here overrides ``lift_matrix`` and
``Ad_matrix`` with closed forms, so the finite-difference ``Group`` methods
are the oracles that tests compare them against; ``check residual`` also
calls ``Group.lift_matrix`` for the momenta of a legacy sl2c file, whose
stored digits went through it.  A group's own lifts are fixed when it is
built.  The matched-pair groups inherit the generic ``Ad_matrix``, which no
command reads.  ``coAd`` is that one matrix transposed.  SU(2) and K give
their ``log`` together with its Jacobian in chart coordinates
(``log_dlog``), from one conversion of the point, and the built-in
Lagrangians take their closed gradients from it.

Each group has one log.  ``log_values`` is the log on Python floats: the
list of a point's chart entries to the list of its algebra coordinates.
SO(3) and R^n define it there, and their ``log`` reads the point once and
makes one array of it, so a matched pair can join its factors' logs as
lists.  SU(2) and K define ``log`` on arrays, whose numpy scalars fix their
bits and K's overflow, and take ``log_values`` from the ``Group`` default,
which goes through ``log`` with no change of bits.

Every map that takes a point reads it once, through ``_vec``: TagError if it
has the wrong size, DomainError if it is not a vector (its ``tolist`` would
be a list of lists) and, for the maps that do Python-float arithmetic on its
entries (SU(2)'s ``exp``, ``log`` and ``log_dlog``, K's ``check``, SO(3)'s
``check`` and ``exp``), DomainError if it is not finite.  SO(3)'s
``log_values`` tests its own entries: their sum, and each entry only when
that sum is not finite.
Python-float arithmetic ignores ``np.errstate``: ``*`` and ``+`` overflow
silently to inf, and ``**`` raises OverflowError, which a solve treats as a
FloatingPointError.  The per-point maps on the solver's hot path (``check``,
SU(2)'s ``mul``/``exp``/``log``/``log_dlog`` and lift matrices, the rotation
of a quaternion, SO(3)'s ``check``, ``log`` and lift matrices) work on a
point's entries as Python floats.  They keep numpy's transcendental ufuncs
(``np.arccos``, ``np.arctan2``, ``np.sin``, ``np.cos``) and take norms as
``sqrt(q @ q)``, so they return the same bits as the matrix forms they
replaced, which the tests keep as references; SO(3)'s ``log`` differs from
them only above pi - 5e-4, where it reads the axis off the symmetric part.
K's ``log_dlog``, which can overflow on a finite point (its C**2), keeps
numpy scalars, which raise under np.errstate.

A chart is tested where a point enters it and where a point can leave it.
Each group's ``check`` tests it (unit norm for SU(2), c > -1 for K), and so
does K's ``log`` on its argument; K's ``exp``, ``inv`` and ``mul`` test,
through ``check``, the point they return, since its c can round onto -1
(exp(-38 e_c) has c = expm1(-38)).  The maps that only build a matrix or a
log from a point the solver already holds read it without testing its chart
again: SU(2)'s ``rot_of`` and lift matrices, and K's lift matrices,
``log_dlog`` and ``Ad_matrix``.

Abelian groups and the circle map a stack of points at once: their ``exp``,
``mul`` and ``inv`` read any leading axes before the point's own (``_vec``
with ``stack``), and ``rot2`` turns an array of angles into a stack of
rotations, so the descriptors built on them can too (``Group.stacks``).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, TagError
from .numerics import fd_curve_columns
# unused; bench/test_bench.py::test_install_and_uninstall_wrappers wraps it
from .numerics import fd_jacobian  # noqa: F401

UNIT_TOL = 1e-9
# SO3.log reads the axis off the symmetric part above pi - 5e-4
NEAR_PI_COS = -math.cos(5e-4)


def _vec(x, n, finite=False, stack=False):
    """x read once as a vector of n floats: TagError if it has another
    size, DomainError naming its shape if it is not a vector.  With
    ``finite`` it returns (vector, its entries as Python floats), and
    DomainError if an entry is not finite: Python-float arithmetic ignores
    np.errstate, so it would pass a NaN or an inf on without the
    floating-point error that numpy raises.  With ``stack`` it reads a
    stack of such vectors, any leading axes before a last one of n."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    size = v.shape[-1] if stack else v.size
    if size != n:
        raise TagError("expected vector of length %d, got %d" % (n, size))
    if v.ndim != 1 and not stack:
        raise DomainError("chart point has shape %s, not a vector's"
                          % (v.shape,))
    if not finite:
        return v
    values = v.tolist()
    if not all(map(math.isfinite, values)):
        raise DomainError("chart point is not finite: %s" % values)
    return v, values


class Group:
    """Group descriptor: chart coordinates plus the operation table."""

    name = "group"
    dim = 0        # algebra dimension
    coord_dim = 0  # chart dimension of the group manifold
    # whether exp, mul and inv also take a stack of points, leading axes
    # first, and map it at once, as each point alone
    stacks = False

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

    def log_values(self, values):
        """The log of the chart point whose entries are the floats
        ``values``, as a list of floats.  A group whose log is Python-float
        arithmetic defines it here, and its ``log`` reads the point once
        and calls this; this default reads it through ``log``, with no
        change of bits."""
        return self.log(np.array(values)).tolist()

    def check(self, g):
        """g as an array; DomainError if it is not a valid chart point."""
        return _vec(g, self.coord_dim)

    def Ad_matrix(self, g):
        """dim x dim matrix of Ad_g, column i = d/dt log(g exp(t e_i) g^-1)
        at t=0 by finite differences, log being the chart inverse: the
        oracle of the closed forms that the concrete groups override it
        with."""
        ginv = self.inv(g)
        return fd_curve_columns(
            lambda xi: self.log(self.mul(self.mul(g, self.exp(xi)), ginv)),
            self.dim)

    # -- derived helpers -----------------------------------------------------

    def lift_matrix(self, side, g):
        """coord_dim x dim matrix, column i = d/dt (g exp(t e_i)) (left) or
        d/dt (exp(t e_i) g) (right) at t=0, by finite differences: the oracle
        of the closed forms that the concrete groups override it with.  Its
        step does not scale with |g|, so on an unbounded chart (Circle, K) it
        is one only near the identity.  It must not be rescaled: the Phi and
        Psi columns of legacy sl2c files went through exactly these digits,
        which test_finite_difference_files_recheck_with_gap_zero re-checks."""
        if side == "left":
            return fd_curve_columns(lambda xi: self.mul(g, self.exp(xi)),
                                    self.dim)
        return fd_curve_columns(lambda xi: self.mul(self.exp(xi), g), self.dim)

    def coAd(self, g, mu):
        """Coadjoint transport Ad*_{g^{-1}}: <coAd(g,mu), xi> = <mu, Ad_g xi>."""
        return self.Ad_matrix(g).T @ _vec(mu, self.dim)

    def random(self, rng, sigma=0.5):
        return self.exp(sigma * rng.standard_normal(self.dim))

    def random_algebra(self, rng, sigma=1.0):
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
    w, x, y, z = q.tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class SU2(Group):
    """SU(2) stored as unit quaternions.

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
        norm = math.sqrt(g @ g)
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise DomainError("quaternion norm %.3e is not 1" % norm)
        return g

    def mul(self, a, b):
        q = quat_mul(_vec(a, 4), _vec(b, 4))
        return q / math.sqrt(q @ q)

    def inv(self, g):
        return quat_conj(_vec(g, 4))

    def exp(self, xi):
        xi, (x, y, z) = _vec(xi, 3, finite=True)
        theta = math.sqrt(xi @ xi)
        if theta < 1e-100:
            return self.identity()
        half = 0.5 * theta
        s = float(np.sin(half))
        return np.array([float(np.cos(half)), s * x / theta, s * y / theta,
                         s * z / theta])

    def log(self, g):
        g, (w, x, y, z) = _vec(g, 4, finite=True)
        v = g[1:]
        vn = math.sqrt(v @ v)
        if vn < 1e-14:
            return np.zeros(3)
        theta = 2.0 * float(np.arctan2(vn, w))
        return np.array([theta * x / vn, theta * y / vn, theta * z / vn])

    def log_dlog(self, g):
        """(log g, its 3 x 4 Jacobian) from one conversion of g: the
        Jacobian of log(w, v) = 2 atan2(|v|, w) v / |v| in all four
        quaternion coordinates, off the unit sphere too."""
        g, (w, x, y, z) = _vec(g, 4, finite=True)
        v = g[1:]
        vn = math.sqrt(v @ v)
        if vn < 1e-14:
            # log is 0 on this ball; curves through it see the smooth limit,
            # (2 / w) I, whose zeros carry the sign of w; at w = 0, or a w
            # so small that 2 / w overflows, there is none
            d = 2.0 / w if w else math.inf
            if math.isinf(d):
                raise DomainError("SU2.log_dlog has no limit at %s"
                                  % g.tolist())
            o = d * 0.0
            return np.zeros(3), np.array([[0.0, d, o, o], [0.0, o, d, o],
                                          [0.0, o, o, d]])
        theta = 2.0 * float(np.arctan2(vn, w))
        log = np.array([theta * x / vn, theta * y / vn, theta * z / vn])
        # s I + k u u^T beside the column -2 v / r2, u = v / |v|; the zeros
        # of s I are added, so an entry k ui uj of -0.0 reads 0.0
        r2 = w * w + vn * vn
        s = theta / vn
        k = 2.0 * w / r2 - s
        ux, uy, uz = x / vn, y / vn, z / vn
        return log, np.array([
            [(-2.0 * x) / r2, s + k * (ux * ux), 0.0 + k * (ux * uy),
             0.0 + k * (ux * uz)],
            [(-2.0 * y) / r2, 0.0 + k * (uy * ux), s + k * (uy * uy),
             0.0 + k * (uy * uz)],
            [(-2.0 * z) / r2, 0.0 + k * (uz * ux), 0.0 + k * (uz * uy),
             s + k * (uz * uz)]])

    def bracket(self, x, y):
        return np.cross(_vec(x, 3), _vec(y, 3))

    def lift_matrix(self, side, g):
        """Column i is g (0, e_i/2) (left) or (0, e_i/2) g (right)."""
        w, x, y, z = _vec(g, 4).tolist()
        if side == "left":
            return 0.5 * np.array([[-x, -y, -z], [w, -z, y], [z, w, -x],
                                   [-y, x, w]])
        return 0.5 * np.array([[-x, -y, -z], [w, z, -y], [-z, w, x],
                               [y, -x, w]])

    def Ad_matrix(self, g):
        return self.rot_of(g)

    def rot_of(self, g):
        return rotation_matrix_of_quaternion(_vec(g, 4))


class KGroup(Group):
    """The group K of the Iwasawa factorization, in its (a, b, c) chart.

    Product: (a1,b1,c1)*(a2,b2,c2) = (a1,b1,c1)(1+c2) + (a2,b2,c2), valid on
    c > -1.  Its 3x3 real matrix view [[1+c, 0, 0], [0, 1+c, 0], [-a, -b,
    1]] is Su2K's closed action on the SU(2) fiber, and a test reference.
    """

    name = "k"
    dim = 3
    coord_dim = 3

    def identity(self):
        return np.zeros(3)

    def check(self, g):
        g, (a, b, c) = _vec(g, 3, finite=True)
        if not c > -1.0:
            raise DomainError("K coordinate c = %.6g <= -1" % c)
        return g

    def mul(self, a, b):
        a = _vec(a, 3)
        b = _vec(b, 3)
        return self.check(a * (1.0 + b[2]) + b)

    def inv(self, g):
        g = _vec(g, 3)
        return self.check(-g / (1.0 + g[2]))

    def exp(self, xi):
        a, b, c = _vec(xi, 3)
        e = np.expm1(c)
        f = e / c if abs(c) > 1e-8 else 1.0 + 0.5 * c
        return self.check(np.array([a * f, b * f, e]))

    def log(self, g):
        A, B, C = self.check(g)
        c = np.log1p(C)
        f = C / c if abs(c) > 1e-8 else 1.0 + 0.5 * c
        return np.array([A / f, B / f, c])

    def log_dlog(self, g):
        """(log g, its 3 x 3 Jacobian) from one conversion of g: log(A, B, C)
        = (A phi(C), B phi(C), log1p(C)), phi(C) = log1p(C) / C.  It keeps
        the numpy scalars of the point, so an overflow raises under
        np.errstate, as Python-float arithmetic would not."""
        A, B, C = _vec(g, 3)
        c = np.log1p(C)
        f = C / c if abs(c) > 1e-8 else 1.0 + 0.5 * c
        phi = c / C if abs(c) > 1e-8 else 1.0 / (1.0 + 0.5 * c)
        if abs(C) > 1e-4:
            dphi = (C / (1.0 + C) - c) / C**2
        else:  # Taylor series: the quotient above cancels to C^2 / 2
            dphi = -0.5 + C * (2.0 / 3.0 - 0.75 * C)
        return np.array([A / f, B / f, c]), np.array([
            [phi, 0.0, A * dphi], [0.0, phi, B * dphi],
            [0.0, 0.0, 1.0 / (1.0 + C)]])

    def bracket(self, x, y):
        k = np.array([0.0, 0.0, 1.0])
        return np.cross(k, np.cross(_vec(x, 3), _vec(y, 3)))

    def lift_matrix(self, side, g):
        # a b = a (1 + c_b) + b, and exp has derivative 1 at 0
        g = _vec(g, 3)
        if side == "left":
            return np.eye(3) + np.outer(g, [0.0, 0.0, 1.0])
        f = 1.0 + g[2]
        return np.array([[f, 0.0, 0.0], [0.0, f, 0.0], [0.0, 0.0, f]])

    def Ad_matrix(self, g):
        # M X M^-1 for the 3x3 matrix view M of g and the 3x3 algebra matrix
        # X of xi, read as a matrix on (a, b, c)
        a, b, c = _vec(g, 3)
        f = 1.0 / (1.0 + c)
        return np.array([[f, 0.0, a * f], [0.0, f, b * f], [0.0, 0.0, 1.0]])


def hat3(xi):
    x, y, z = xi
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


I3 = np.eye(3)


class SO3(Group):
    """SO(3) in row-major 3x3 matrix coordinates."""

    name = "so3"
    dim = 3
    coord_dim = 9

    def identity(self):
        return np.eye(3).ravel()

    def check(self, g):
        # |M^T M - I| (Frobenius) within 1e-8 and det M >= 0, on the columns
        g, (a, b, c, d, e, f, p, q, r) = _vec(g, 9, finite=True)
        n0 = a * a + d * d + p * p - 1.0
        n1 = b * b + e * e + q * q - 1.0
        n2 = c * c + f * f + r * r - 1.0
        o01 = a * b + d * e + p * q
        o02 = a * c + d * f + p * r
        o12 = b * c + e * f + q * r
        dev = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2
                        + 2.0 * (o01 * o01 + o02 * o02 + o12 * o12))
        det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
        if not (dev <= 1e-8 and det >= 0.0):
            raise DomainError("matrix is not a rotation")
        return g

    def mul(self, a, b):
        return (_vec(a, 9).reshape(3, 3) @ _vec(b, 9).reshape(3, 3)).ravel()

    def inv(self, g):
        return _vec(g, 9).reshape(3, 3).T.ravel()

    def exp(self, xi):
        xi, _ = _vec(xi, 3, finite=True)
        theta = np.sqrt(xi @ xi)
        K = hat3(xi)
        if theta < 1e-12:
            return (I3 + K + 0.5 * K @ K).ravel()
        A = np.sin(theta) / theta
        B = (1.0 - np.cos(theta)) / theta**2
        return (I3 + A * K + B * K @ K).ravel()

    def log(self, g):
        return np.array(self.log_values(_vec(g, 9).tolist()))

    def log_values(self, values):
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = values
        # a sum of finite entries is finite unless it overflows, so only
        # then are the entries tested one by one
        if not (math.isfinite(sum(values))
                or all(map(math.isfinite, values))):
            raise DomainError("chart point is not finite: %s" % values)
        cos_t = min(max(0.5 * ((m00 + m11) + m22 - 1.0), -1.0), 1.0)
        # w = sin(theta) u, for the rotation by theta about the unit axis u
        w = [0.5 * (m21 - m12), 0.5 * (m02 - m20), 0.5 * (m10 - m01)]
        if cos_t < NEAR_PI_COS:
            # w vanishes with sin(theta): read u off the largest row of
            # M + M^T - 2 cos(theta) I = 2 (1 - cos(theta)) u u^T instead,
            # with the sign that w gives it
            c2, s01, s02, s12 = 2.0 * cos_t, m01 + m10, m02 + m20, m12 + m21
            rows = [[m00 + m00 - c2, s01, s02], [s01, m11 + m11 - c2, s12],
                    [s02, s12, m22 + m22 - c2]]
            u = max(rows, key=lambda r: abs(r[0]) + abs(r[1]) + abs(r[2]))
            n = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
            if not n > 0.0:
                raise DomainError("matrix is not a rotation")
            sin_t = (u[0] * w[0] + u[1] * w[1] + u[2] * w[2]) / n
            if sin_t < 0.0:
                n, sin_t = -n, -sin_t
            f = float(np.arctan2(sin_t, cos_t)) / n
            return [f * u[0], f * u[1], f * u[2]]
        theta = float(np.arccos(cos_t))
        if theta < 1e-8:
            return w
        f = theta / float(np.sin(theta))
        return [f * w[0], f * w[1], f * w[2]]

    def bracket(self, x, y):
        return np.cross(_vec(x, 3), _vec(y, 3))

    def lift_matrix(self, side, g):
        # column i is g hat(e_i) (left) or hat(e_i) g (right), row-major:
        # signed copies of the entries of g, rows (a b c), (d e f), (p q r)
        a, b, c, d, e, f, p, q, r = _vec(g, 9).tolist()
        if side == "left":  # rows 3i..3i+2 are hat3 of row i of g
            return np.array([[0.0, -c, b], [c, 0.0, -a], [-b, a, 0.0],
                             [0.0, -f, e], [f, 0.0, -d], [-e, d, 0.0],
                             [0.0, -r, q], [r, 0.0, -p], [-q, p, 0.0]])
        return np.array([[0.0, p, -d], [0.0, q, -e], [0.0, r, -f],
                         [-p, 0.0, a], [-q, 0.0, b], [-r, 0.0, c],
                         [d, -a, 0.0], [e, -b, 0.0], [f, -c, 0.0]])

    def Ad_matrix(self, g):
        return _vec(g, 9).reshape(3, 3)


class Abelian(Group):
    """Additive R^n; exp, mul and inv take stacks."""

    stacks = True

    def __init__(self, n):
        self.dim = n
        self.coord_dim = n
        self.name = "r%d" % n

    def identity(self):
        return np.zeros(self.dim)

    def mul(self, a, b):
        return _vec(a, self.dim, stack=True) + _vec(b, self.dim, stack=True)

    def inv(self, g):
        return -_vec(g, self.dim, stack=True)

    def exp(self, xi):
        return _vec(xi, self.dim, stack=True).copy()

    def log(self, g):
        return np.array(self.log_values(_vec(g, self.dim).tolist()))

    def log_values(self, values):
        return values

    def bracket(self, x, y):
        return np.zeros(self.dim)

    def lift_matrix(self, side, g):
        return np.eye(self.dim)

    def Ad_matrix(self, g):
        return np.eye(self.dim)


class Circle(Abelian):
    """The circle group in its angle chart (kept on the real line): R^1
    named so2."""

    def __init__(self):
        super().__init__(1)
        self.name = "so2"


def rot2(theta):
    """The rotation by the angle theta, or a stack of them for an array of
    angles, the matrix axes last."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.empty(np.shape(theta) + (2, 2))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1] = c, -s, s, c
    return R
