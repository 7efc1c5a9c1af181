"""Riemannian primitives for Euclidean space and the unit sphere.

All operations are pure functions of immutable values and may be called
concurrently.  Points and tangent vectors are plain ``numpy`` arrays in
ambient coordinates; sphere points live on ``S^{d-1}`` embedded in ``R^d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidPoint

EUCLIDEAN = "euclidean"
SPHERE = "sphere"

# Ingestion band inside which off-sphere points are renormalized instead of
# rejected (absorbs JSON round-trip error); construction-time validity is
# much tighter (1e-12).
SPHERE_RENORM_BAND = 1e-6
POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
# entries of the (rows, points, dim) temporaries of one pairwise_sq_dist block
PAIRWISE_BLOCK = 1 << 15

# Test-only negative control: flips a sign inside parallel transport so the
# geodesic check suite can demonstrate that it catches real faults.
_FAULT = None


def set_fault_injection(name):
    """Enable a named fault (test-only).  Pass ``None`` to restore."""
    global _FAULT
    if name not in (None, "pt_sign"):
        raise InvalidInput(f"unknown fault {name!r}")
    _FAULT = name


def _finite(x) -> bool:
    """Whether every entry of the float array ``x`` is finite.

    A NaN or infinite entry makes the sum non-finite; only a sum of finite
    entries that overflows needs the entry-by-entry test.  The sum is taken
    in Python floats, which overflow without numpy's warning.
    """
    return math.isfinite(sum(x.tolist())) or bool(np.all(np.isfinite(x)))


def _norm(x) -> float:
    """``np.linalg.norm`` of a real 1-D array, bit for bit: the square root
    of its dot product with itself, without numpy's dispatch."""
    return math.sqrt(float(x.dot(x)))


def _as_floats(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{what} is not numeric: {exc}") from exc


@dataclass(frozen=True)
class Manifold:
    """A supported base manifold: flat ``R^d`` or the unit sphere ``S^{d-1}``."""

    kind: str
    ambient_dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, SPHERE):
            raise InvalidInput(f"unknown manifold kind {self.kind!r}")
        min_dim = 1 if self.kind == EUCLIDEAN else 2
        if self.ambient_dim < min_dim:
            raise InvalidInput(
                f"{self.kind} needs ambient_dim >= {min_dim}, got {self.ambient_dim}"
            )

    # -- validation -----------------------------------------------------

    def check_point(self, x) -> np.ndarray:
        """Validate ``x`` and return it as a float array.

        Sphere points within ``SPHERE_RENORM_BAND`` of unit norm are
        projected back onto the sphere; anything further off is rejected.
        """
        x = _as_floats(x, "point")
        if x.shape != (self.ambient_dim,):
            raise InvalidInput(
                f"point of shape {x.shape}, expected ({self.ambient_dim},)"
            )
        if not _finite(x):
            raise InvalidPoint("non-finite coordinates")
        if self.kind == SPHERE:
            nrm = _norm(x)
            if abs(nrm - 1.0) > SPHERE_RENORM_BAND:
                raise InvalidPoint(f"sphere point has norm {nrm}")
            if abs(nrm - 1.0) > POINT_TOL:
                x = x / nrm
        return x

    def check_tangent(self, x, v) -> np.ndarray:
        """Validate that ``v`` is tangent at ``x`` (orthogonality on the sphere)."""
        v = _as_floats(v, "tangent")
        if v.shape != (self.ambient_dim,):
            raise InvalidInput(
                f"tangent of shape {v.shape}, expected ({self.ambient_dim},)"
            )
        if not _finite(v):
            raise InvalidInput("non-finite tangent")
        if self.kind == SPHERE:
            dot = float(v.dot(x))
            if abs(dot) > TANGENT_TOL:
                raise InvalidInput(f"vector not tangent: <v,x> = {dot}")
        return v

    def project_tangent(self, x, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == SPHERE:
            return v - np.dot(v, x) * x
        return v

    # -- metric ---------------------------------------------------------

    def dist(self, x, y) -> float:
        if x.shape != y.shape or x.shape != (self.ambient_dim,):
            raise InvalidInput("dimension mismatch in dist")
        if self.kind == EUCLIDEAN:
            return float(np.linalg.norm(x - y))
        # chord-based arc length: stable both near 0 and near pi, where
        # arccos of the dot product loses half the working precision
        if float(np.dot(x, y)) >= 0.0:
            half = 0.5 * float(np.linalg.norm(x - y))
            return 2.0 * float(np.arcsin(min(half, 1.0)))
        half = 0.5 * float(np.linalg.norm(x + y))
        return float(np.pi) - 2.0 * float(np.arcsin(min(half, 1.0)))

    def pairwise_sq_dist(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Squared distances between two stacks of points (rows).

        Taken in blocks of rows, so the (rows, len(ys), dim) difference
        arrays stay near ``PAIRWISE_BLOCK`` entries at any size; each row
        is computed alone, so the result does not depend on the blocks.
        The sphere's dot products (the (len(xs), len(ys)) matrix product that
        picks the branch) are taken in one call.
        """
        out = np.empty((len(xs), len(ys)))
        dots = None if self.kind == EUCLIDEAN else xs @ ys.T
        step = max(1, PAIRWISE_BLOCK // max(1, ys.size))
        for lo in range(0, len(xs), step):
            rows = slice(lo, lo + step)
            out[rows] = self._sq_dist_rows(xs[rows], ys,
                                           None if dots is None else dots[rows])
        return out

    def _sq_dist_rows(self, xs, ys, dots):
        if self.kind == EUCLIDEAN:
            diff = xs[:, None, :] - ys[None, :, :]
            return np.einsum("ijk,ijk->ij", diff, diff)
        d_minus = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
        d_plus = np.linalg.norm(xs[:, None, :] + ys[None, :, :], axis=2)
        near = 2.0 * np.arcsin(np.minimum(0.5 * d_minus, 1.0))
        far = np.pi - 2.0 * np.arcsin(np.minimum(0.5 * d_plus, 1.0))
        ang = np.where(dots >= 0.0, near, far)
        return ang * ang

    def exp(self, x, v) -> np.ndarray:
        if self.kind == EUCLIDEAN:
            return x + v
        nrm = _norm(v)
        if nrm == 0.0:
            return x
        y = math.cos(nrm) * x + math.sin(nrm) * (v / nrm)
        return y / _norm(y)

    def log(self, x, y) -> np.ndarray:
        """A minimizing tangent ``v`` with ``exp_x(v) = y`` and ``|v| = dist(x, y)``.

        At sphere antipodes the minimizing direction is not unique; the
        deterministic convention is ``normalize(e_k - <e_k, x> x)`` for the
        smallest coordinate index ``k`` whose projection is non-degenerate.
        """
        if self.kind == EUCLIDEAN:
            return y - x
        cosang = float(np.clip(np.dot(x, y), -1.0, 1.0))
        theta = self.dist(x, y)
        u = y - cosang * x
        nrm = float(np.linalg.norm(u))
        if theta < 1e-15:
            return np.zeros(self.ambient_dim)
        if nrm < 1e-12:
            return theta * self._antipodal_direction(x)
        return theta * (u / nrm)

    def _antipodal_direction(self, x) -> np.ndarray:
        for k in range(self.ambient_dim):
            e = np.zeros(self.ambient_dim)
            e[k] = 1.0
            u = e - np.dot(e, x) * x
            nrm = float(np.linalg.norm(u))
            if nrm > 1e-6:
                return u / nrm
        raise InvalidPoint("degenerate point for antipodal tie-break")

    def parallel_transport(self, x, v, w, t: float):
        """Transport ``w`` along the geodesic ``s -> exp_x(s v)`` up to time ``t``.

        Returns the pair ``(exp_x(t v), transported w)``.  Transport is an
        isometry; on the sphere it is the rotation in ``span{x, v/|v|}`` and
        the identity on the orthogonal complement.
        """
        if self.kind == EUCLIDEAN:
            out = -w if _FAULT == "pt_sign" else w
            return x + t * v, out
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return x, w
        u = v / nv
        theta = t * nv
        c, s = np.cos(theta), np.sin(theta)
        b = float(np.dot(w, u))
        w_perp = w - b * u
        y = c * x + s * u
        y = y / np.linalg.norm(y)
        sign = -1.0 if _FAULT == "pt_sign" else 1.0
        w_t = b * (c * u - sign * s * x) + w_perp
        return y, self.project_tangent(y, w_t)


def euclidean(dim: int) -> Manifold:
    return Manifold(EUCLIDEAN, dim)


def sphere(ambient_dim: int) -> Manifold:
    return Manifold(SPHERE, ambient_dim)
