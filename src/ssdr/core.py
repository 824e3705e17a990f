"""Shared value types: spectra, images, cameras, G-buffers.

Coordinate convention used throughout: right-handed view space with the
camera at the origin looking along +z, x right, y down.  Depth maps store
the z coordinate in meters (not ray length).  Pixel centers sit at integer
coordinates, so projecting the point behind pixel (i, j) yields exactly
(i, j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ContractError(ValueError):
    """Violated precondition of a documented operation."""


class BehindCameraError(ContractError):
    """Point has non-positive depth along the camera forward axis."""


@dataclass(frozen=True)
class Spectrum:
    """Linear RGB triple (reflectance, or radiance in W sr^-1 m^-2)."""

    r: float
    g: float
    b: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.r, self.g, self.b])):
            raise ContractError(f"non-finite spectrum {(self.r, self.g, self.b)}")

    @classmethod
    def from_array(cls, a) -> "Spectrum":
        a = np.asarray(a, dtype=np.float64).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def __array__(self, dtype=None, copy=None):
        return np.array([self.r, self.g, self.b], dtype=dtype or np.float64)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec.709 luma of a (..., 3) array."""
    rgb = np.asarray(rgb, dtype=np.float64)
    return rgb[..., 0] * 0.2126 + rgb[..., 1] * 0.7152 + rgb[..., 2] * 0.0722


@dataclass
class ImageBuffer:
    """Row-major scalar image, row 0 at the top; 1 or 3 (or more) channels.

    `data` has shape (height, width, channels).  Channel counts above 3 are
    allowed for feature maps.
    """

    width: int
    height: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.height, self.width, self.channels):
            raise ContractError(
                f"data shape {self.data.shape} != "
                f"({self.height}, {self.width}, {self.channels})"
            )

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ImageBuffer":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 2:
            a = a[:, :, None]
        h, w, c = a.shape
        return cls(width=w, height=h, channels=c, data=a)

    def plane(self) -> np.ndarray:
        """Single-channel view with the channel axis dropped."""
        if self.channels != 1:
            raise ContractError(f"expected 1 channel, got {self.channels}")
        return self.data[:, :, 0]


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics; fx, fy, cx, cy in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ContractError("principal point outside the image")

    def to_dict(self) -> dict:
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "width": self.width, "height": self.height,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Camera":
        """fx, fy, cx, cy must be finite numbers and width, height integers,
        none a boolean: a missing key is a KeyError, a bad value a ContractError."""
        for key in ("fx", "fy", "cx", "cy"):
            if type(d[key]) not in (int, float) or not np.isfinite(d[key]):
                raise ContractError(f"{key!r} must be a finite number, got {d[key]!r}")
        for key in ("width", "height"):
            if type(d[key]) is not int:
                raise ContractError(f"{key!r} must be an integer, got {d[key]!r}")
        return cls(fx=float(d["fx"]), fy=float(d["fy"]), cx=float(d["cx"]),
                   cy=float(d["cy"]), width=d["width"], height=d["height"])


def project(camera: Camera, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of view-space points (..., 3) to pixel coords.

    Returns (pixels (..., 2), inside flags).  Raises for non-positive depth.
    """
    x = np.asarray(x, dtype=np.float64)
    z = x[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("point behind camera (z <= 0)")
    u = camera.fx * x[..., 0] / z + camera.cx
    v = camera.fy * x[..., 1] / z + camera.cy
    px = np.stack([u, v], axis=-1)
    inside = (u >= 0) & (u < camera.width) & (v >= 0) & (v < camera.height)
    return px, inside


def unproject(camera: Camera, pixel: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Inverse of `project`: pixel coords (..., 2) + z-depth to view space."""
    pixel = np.asarray(pixel, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth <= 0):
        raise ContractError("unproject requires depth > 0")
    x = (pixel[..., 0] - camera.cx) / camera.fx * depth
    y = (pixel[..., 1] - camera.cy) / camera.fy * depth
    return np.stack([x, y, np.broadcast_to(depth, x.shape)], axis=-1)


@dataclass
class GBuffer:
    """Per-pixel scene description: albedo, normal, depth, roughness, metallic.

    albedo (H,W,3) in [0,1]; normal (H,W,3) unit view-space vectors; depth
    (H,W) meters > 0 (non-positive or non-finite marks "no geometry");
    roughness, metallic (H,W) in [0,1].
    """

    albedo: np.ndarray
    normal: np.ndarray
    depth: np.ndarray
    roughness: np.ndarray
    metallic: np.ndarray

    def __post_init__(self):
        self.albedo = np.asarray(self.albedo, dtype=np.float64)
        self.normal = np.asarray(self.normal, dtype=np.float64)
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.roughness = np.asarray(self.roughness, dtype=np.float64)
        self.metallic = np.asarray(self.metallic, dtype=np.float64)
        h, w = self.depth.shape
        shapes = {
            "albedo": (h, w, 3), "normal": (h, w, 3), "depth": (h, w),
            "roughness": (h, w), "metallic": (h, w),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ContractError(f"{name} shape {got}, expected {want}")

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]

    def copy(self) -> "GBuffer":
        return GBuffer(self.albedo.copy(), self.normal.copy(), self.depth.copy(),
                       self.roughness.copy(), self.metallic.copy())


@dataclass
class ValidationIssue:
    kind: str
    pixel: tuple[int, int]  # (x, y)
    value: float


_MAX_LISTED = 16  # issues listed per kind; every pixel is counted


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.counts

    def add(self, kind: str, xs: np.ndarray, ys: np.ndarray, vals: np.ndarray) -> None:
        n = int(xs.size)
        if n == 0:
            return
        self.counts[kind] = self.counts.get(kind, 0) + n
        for i in range(min(n, _MAX_LISTED)):
            self.issues.append(ValidationIssue(kind, (int(xs[i]), int(ys[i])), float(vals[i])))

    def summary(self) -> str:
        if self.ok():
            return "gbuffer valid"
        parts = [f"{k}: {v} px" for k, v in sorted(self.counts.items())]
        return "gbuffer issues: " + ", ".join(parts)


_UNIT_TOL = 1e-4


def validate_gbuffer(g: GBuffer, repair: bool = False) -> tuple[ValidationReport, GBuffer]:
    """Check every per-pixel invariant; optionally return a repaired copy.

    Repair normalizes normals and clamps scalars into range; it never
    invents geometry (sentinel depths are reported but left alone).
    Repair is idempotent.
    """
    report = ValidationReport()
    out = g.copy() if repair else g

    nn = np.linalg.norm(g.normal, axis=-1)
    bad = np.abs(nn - 1.0) > _UNIT_TOL
    ys, xs = np.nonzero(bad)
    report.add("non-unit normal", xs, ys, nn[bad])
    if repair and xs.size:
        safe = np.where(nn > 1e-12, nn, 1.0)
        out.normal = g.normal / safe[..., None]
        out.normal[nn <= 1e-12] = np.array([0.0, 0.0, -1.0])

    for name, arr in (("albedo", g.albedo), ("roughness", g.roughness),
                      ("metallic", g.metallic)):
        finite = np.isfinite(arr)
        oob = finite & ((arr < 0.0) | (arr > 1.0))
        nonfin = ~finite
        if arr.ndim == 3:
            idx = np.nonzero(oob.any(axis=-1))
            vals = arr[idx][:, 0] if idx[0].size else np.empty(0)
            report.add(f"{name} out of range", idx[1], idx[0], vals)
            idx = np.nonzero(nonfin.any(axis=-1))
            report.add(f"{name} non-finite", idx[1], idx[0], np.zeros(idx[0].size))
        else:
            ys, xs = np.nonzero(oob)
            report.add(f"{name} out of range", xs, ys, arr[oob])
            ys, xs = np.nonzero(nonfin)
            report.add(f"{name} non-finite", xs, ys, np.zeros(xs.size))
        if repair:
            fixed = np.clip(np.nan_to_num(arr, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
            setattr(out, name, fixed)

    sentinel = ~has_geometry(g.depth)
    ys, xs = np.nonzero(sentinel)
    report.add("depth sentinel (no geometry)", xs, ys,
               np.where(np.isfinite(g.depth[sentinel]), g.depth[sentinel], 0.0))

    return report, out


def has_geometry(depth: np.ndarray) -> np.ndarray:
    """Finite depths > 0; any other depth marks "no geometry"."""
    return np.isfinite(depth) & (depth > 0)


def nearest_pixel(px: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) indices of the pixel nearest each continuous (x, y) of
    px (N, 2), clamped into an image of `shape` (H, W, ...)."""
    ix = np.clip(np.rint(px[:, 0]).astype(np.int64), 0, shape[1] - 1)
    iy = np.clip(np.rint(px[:, 1]).astype(np.int64), 0, shape[0] - 1)
    return iy, ix


def bilinear(image: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear lookup of an (H, W) or (H, W, C) image at continuous pixel
    coords x, y (N,), clamped at the borders.  Nodes sit at integer
    coordinates, so an integer position returns the stored value."""
    h, w = image.shape[:2]
    x, y = np.clip(x, 0.0, w - 1.0), np.clip(y, 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    if image.ndim == 3:     # one weight per lane for all its channels
        fx, fy = fx[:, None], fy[:, None]
    top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def normalize(v: np.ndarray) -> np.ndarray:
    """v / |v| over the last axis (of length 3); zero vectors stay zero."""
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(dot(v, v))[..., None]
    return v / np.where(n > 0, n, 1.0)


def orthonormal_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branchless tangent/bitangent frame for unit normals (..., 3)."""
    n = np.asarray(n, dtype=np.float64)
    s = np.where(n[..., 2] >= 0.0, 1.0, -1.0)
    a = -1.0 / (s + n[..., 2])
    b = n[..., 0] * n[..., 1] * a
    t = np.stack([1.0 + s * n[..., 0] ** 2 * a, s * b, -s * n[..., 0]], axis=-1)
    bt = np.stack([b, s + n[..., 1] ** 2 * a, -n[..., 1]], axis=-1)
    return t, bt


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis (of length 3), broadcasting the rest.

    Summed in the order of np.sum(a * b, axis=-1), bit for bit: the leading
    0.0 turns the sum of three -0.0 products into +0.0, as np.sum does."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def as_rgb(value) -> np.ndarray:
    """Coerce scalar / Spectrum / array-like to a float64 (..., 3) array."""
    if isinstance(value, Spectrum):
        return np.asarray(value)
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        return np.full(3, float(a))
    return a
