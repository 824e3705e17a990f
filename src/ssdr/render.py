"""Differentiable re-rendering layer.

Per pixel the estimator draws N BRDF-importance-sampled directions, queries
the lighting oracle along each, and averages f * L * cos(theta) / pdf.
Invalid samples (below the horizon or back-facing half vectors) contribute
zero but still count in N.  The backward pass treats the sampled directions
and trace results as constants: gradients flow through the BRDF value, the
PDF, the cosine, and the light's own parameters, never through the discrete
sample locations.  It reads the forward pass's samples and light queries
from the sample tape `render_mc` can record, or replays them from the seed.
The gradient checks shade one drawn sample set under shifted material maps
and lights through the same row blocks and sample chunks (`_shade_blocks`).
All accumulation is float64 in a fixed chunk order, so results are
bit-identical at any thread count.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import ctypes
import os
from dataclasses import dataclass

import numpy as np

from . import brdf
from .core import (Camera, ContractError, GBuffer, dot, has_geometry, normalize,
                   orthonormal_basis, unproject)
from .lighting import LightField
from .sampling import check_seed, uniform_block


def _keep_freed_heap() -> None:
    """Set glibc's malloc policy for the process, so that what a row block
    frees stays mapped for the next (README, "The heap policy").  Where libc
    has no `mallopt` (musl, macOS, Windows) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)             # M_MMAP_THRESHOLD: temporaries from the heap
    mallopt(-1, 128 << 20)            # M_TRIM_THRESHOLD: freed heap stays mapped
    mallopt(-8, os.cpu_count() or 1)  # M_ARENA_MAX: threads share few arenas


_keep_freed_heap()


def _one_blas_thread() -> None:
    """Set every OpenBLAS the process has loaded to one thread, so that the
    worker pool is the only source of threads and a BLAS reduction's
    bytes do not depend on the core count (README, "The BLAS pin").  Where
    no OpenBLAS is mapped, or it has none of these symbols (MKL,
    Accelerate), this does nothing."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes = (ctypes.c_int,)
                set_threads.restype = None
                set_threads(1)
                break


_one_blas_thread()

_CHUNK_LANES = 1 << 20
_PDF_FLOOR = 1e-6   # q = max(pdf, floor); pdf gradients only above it

# what `render_backward` can differentiate: the four material maps and
# the light's parameters
PARAM_NAMES = ("albedo", "roughness", "metallic", "normal", "light")
MATERIAL_NAMES = PARAM_NAMES[:4]


def check_params(params) -> tuple[str, ...]:
    """The names in `params`, in PARAM_NAMES order; an unknown name is a
    ContractError."""
    for name in params:
        if name not in PARAM_NAMES:
            raise ContractError(f"unknown parameter class {name!r}; "
                                f"choose from {PARAM_NAMES}")
    return tuple(name for name in PARAM_NAMES if name in params)


class RenderNanError(RuntimeError):
    """A pixel accumulator went non-finite; carries the pixel."""

    def __init__(self, pixel):
        self.pixel = pixel
        super().__init__(f"non-finite radiance at pixel {pixel}")


def _finite_pixels(acc, gy, gx) -> np.ndarray:
    """`acc`, the (n, 3) values of pixels (gy, gx), if all are finite."""
    if not np.all(np.isfinite(acc)):
        bad = int(np.nonzero(~np.isfinite(acc).all(axis=1))[0][0])
        raise RenderNanError((int(gx[bad]), int(gy[bad])))
    return acc


@dataclass(frozen=True)
class RenderConfig:
    spp: int = 64
    seed: int = 0
    specular_scale: float = 1.0      # 0 forces pure Lambertian shading

    def __post_init__(self):
        if self.spp < 1:
            raise ContractError("spp must be >= 1")
        check_seed(self.seed)
        if not 0.0 <= self.specular_scale < np.inf:
            raise ContractError("specular_scale must be finite and >= 0, "
                                f"got {self.specular_scale}")


def pixel_geometry(g: GBuffer, camera: Camera):
    """Surface points, eye vectors, and the shadeable-pixel mask."""
    h, w = g.depth.shape
    ys, xs = np.mgrid[0:h, 0:w]
    px = np.stack([xs, ys], axis=-1).astype(np.float64)
    valid = has_geometry(g.depth)
    depth_safe = np.where(valid, g.depth, 1.0)
    points = unproject(camera, px, depth_safe)
    view = normalize(-points)
    valid &= dot(view, g.normal) > 1e-6
    return points, view, valid


_BLOCK_ROWS = 8


def _row_blocks(height: int):
    """Fixed row blocks, independent of the worker count, so accumulation
    order (and therefore every last bit) never depends on threading."""
    return [slice(y, min(y + _BLOCK_ROWS, height))
            for y in range(0, height, _BLOCK_ROWS)]


# ---------------------------------------------------------------------------
# the sample-and-shade kernel, shared by the render, its adjoint and the
# gradient checks


@dataclass
class PixelRecord:
    """Shadeable pixels in row-major order with their geometry and
    materials: the kernel's record of a row block."""

    gy: np.ndarray
    gx: np.ndarray
    pix_id: np.ndarray    # (n_pix,) uint64 random-stream key
    p: np.ndarray         # (n_pix, 3)
    v: np.ndarray         # (n_pix, 3)
    n: np.ndarray         # (n_pix, 3)
    alb: np.ndarray       # (n_pix, 3)
    rough: np.ndarray     # (n_pix,)
    metal: np.ndarray     # (n_pix,)


def _pixels(g, points, view, valid, rows) -> PixelRecord:
    """The record of the shadeable pixels in the row slice `rows`, with the
    materials of the G-buffer g."""
    w = g.depth.shape[1]
    idx = np.nonzero(valid[rows])
    gy = idx[0] + rows.start
    gx = idx[1]
    return PixelRecord(
        gy=gy, gx=gx, pix_id=(gy * w + gx).astype(np.uint64),
        p=points[gy, gx], v=view[gy, gx], n=g.normal[gy, gx],
        alb=g.albedo[gy, gx], rough=g.roughness[gy, gx],
        metal=g.metallic[gy, gx])


def _sample_chunks(n_pix: int, spp: int):
    """Sample ranges of at most _CHUNK_LANES lanes; none without pixels."""
    per = max(1, min(spp, _CHUNK_LANES // max(n_pix, 1)))
    for s0 in range(0, spp if n_pix else 0, per):
        yield s0, min(s0 + per, spp)


def _lane_layout(a: np.ndarray) -> np.ndarray:
    """A copy of `a` (n_pix, ..., 3) in the lane layout: the same shape,
    stored with pixels innermost and the component next, memory
    (..., 3, n_pix) (README, "The lane layout")."""
    return np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)


def _lanes(px: PixelRecord):
    """Per-pixel BRDF inputs (v, n, albedo, roughness, metallic), broadcast
    over the sample axis, the vectors in the lane layout."""
    v, n, alb = (_lane_layout(a)[:, None, :] for a in (px.v, px.n, px.alb))
    return v, n, alb, px.rough[:, None], px.metal[:, None]


def _draw(px: PixelRecord, cfg: RenderConfig, s0: int, s1: int):
    """Directions (n_pix, s1-s0, 3) in the lane layout and validity of
    samples s0..s1-1 of every pixel, drawn from the counter RNG."""
    u = _lane_layout(uniform_block(cfg.seed, px.pix_id[:, None],
                                   np.arange(s0, s1, dtype=np.uint64)[None, :], 3))
    v, n, alb, rough, metal = _lanes(px)
    d, _, ok = brdf.sample_directions(v, n, alb, rough, metal,
                                      cfg.specular_scale, u)
    return d, ok


# one lane's 3 float64 as one item, so a boolean copy moves 24 bytes at a
# time (README, "The lane layout")
_LANE_RECORD = np.dtype((np.void, 24))


def _gather_lanes(a, mask) -> np.ndarray:
    """a[mask] for a float64 lane array a (n_pix, ns, 3), in any layout:
    the live lanes' vectors (k, 3), row-major in lane order."""
    records = np.ascontiguousarray(a).view(_LANE_RECORD)[..., 0]
    return records[mask].view(np.float64).reshape(-1, 3)


def _scatter_lanes(values, mask, like) -> np.ndarray:
    """An array in the layout of `like` (n_pix, ns, 3) holding the rows of
    `values` (k, 3) at the k lanes of `mask`, in lane order, and +0.0
    elsewhere."""
    # the output before the C-order buffer: the other order raised the
    # peak RSS of a 32x32 analytic fit (README, "The lane layout")
    out = np.empty_like(like)
    buf = np.zeros(mask.shape + (3,))
    buf.view(_LANE_RECORD)[..., 0][mask] = \
        np.ascontiguousarray(values, dtype=np.float64).view(_LANE_RECORD)[:, 0]
    out[...] = buf
    return out


def _masked_radiance(light: LightField, p, d, mask, vjp=False):
    """The light's radiance along d (n_pix, ns, 3) from the points p
    (n_pix, 3), queried on the live lanes only and zero elsewhere, in d's
    layout, and with `vjp` the `radiance_vjp` pullback of those lanes
    (else None; also None when no lane is live)."""
    live = np.count_nonzero(mask, axis=1)
    if not live.any():
        return np.zeros_like(d), None
    # each live lane's pixel point, in lane order: pixel by pixel, so a
    # GridLight sees runs of equal positions
    p_live = np.repeat(p, live, axis=0)
    d_live = _gather_lanes(d, mask)
    if vjp:
        rad, pullback = light.radiance_vjp(p_live, d_live)
    else:
        rad, pullback = light.radiance(p_live, d_live), None
    return _scatter_lanes(rad, mask, d), pullback


def _estimate(px: PixelRecord, d, ok, light: LightField, cfg: RenderConfig,
              adj=None, params=(), lit=None, record=None):
    """Per-pixel sums of f * L * cos / q over the samples d (n_pix, ns, 3).

    Returns (sums, None), where sums is the 1-tuple of the (n_pix, 3) value
    sums.  Given the adjoint `adj` (n_pix, 3) of the pixel values, sums is
    instead the adjoint sums of the material maps named in `params`, in
    MATERIAL_NAMES order, and the second item is the light-parameter
    adjoint (its 1/spp factor applied, as it is summed over pixels), or
    None unless "light" is in `params` and a sample reaches the light.
    Only the asked sums are formed.

    The light is queried on the lanes that are `ok` and have a positive
    pdf, and a `record` list receives (d, those lanes, (radiance,
    pullback)), with the pullback kept for any light that has parameters.
    Given `lit`, such a (radiance, pullback) pair recorded for these
    samples, with `ok` the recorded lanes, the light is not queried.
    """
    v, n, alb, rough, metal = _lanes(px)
    args = (v, d, n, alb, rough, metal, cfg.specular_scale)
    if adj is None:
        # both value views read one record of the half-vector terms, freed
        # before the light query
        terms = brdf._half_terms(v, d, n, rough, keep=())
        pdf = brdf.mixture_pdf(*args, terms=terms)
        f = brdf._eval_raw(*args, terms=terms)
        cos = np.maximum(terms.cos_nd, 0.0)
        del terms
    else:
        parts = brdf.eval_pdf_with_partials(*args, params)
        pdf, f = parts["pdf"], parts["f"]
        cos = np.maximum(dot(n, d), 0.0)
    ok = ok & (pdf > 0)
    want_light = adj is not None and "light" in params
    if lit is None:
        # one light query serves the value and the light adjoint
        vjp = light.n_params > 0 and (record is not None or want_light)
        lit = _masked_radiance(light, px.p, d, ok, vjp)
        if record is not None:
            record.append((d, ok, lit))
    radiance, pullback = lit
    if adj is None:
        q = np.where(ok, np.maximum(pdf, _PDF_FLOOR), 1.0)
        f *= radiance           # f * L * (cos / q), in place
        f *= np.where(ok, cos / q, 0.0)[..., None]
        return (f.sum(axis=1),), None

    adj = _lane_layout(adj)[:, None, :]
    q = np.maximum(pdf, _PDF_FLOOR)
    inv_q = np.where(ok, 1.0 / q, 0.0)
    cq = cos * inv_q                            # cos / q
    sums = []
    if any(name in params for name in MATERIAL_NAMES):
        aL = adj * radiance                     # (n_pix, ns, 3)
        aLf = dot(aL, f)
        # sum_ch adj_ch f_ch L_ch cos / q^2, the shared factor of all pdf
        # terms; the pdf floor gates them
        s_pdf = np.where((pdf > _PDF_FLOOR) & ok, aLf * cq * inv_q, 0.0)
    if "albedo" in params:
        # albedo partials are diagonal per channel
        ga = aL * parts["df_dA"] * cq[..., None]
        ga = np.where(ok[..., None], ga, 0.0) - s_pdf[..., None] * parts["dpdf_dA"]
        sums.append(ga.sum(axis=1))
    for name, key in (("roughness", "R"), ("metallic", "M")):
        if name in params:
            gs = np.where(ok, dot(aL, parts["df_d" + key]) * cq, 0.0) \
                - s_pdf * parts["dpdf_d" + key]
            # pairwise over the samples, as a row-major (n_pix, ns) sum
            sums.append(np.ascontiguousarray(gs).sum(axis=1))
    if "normal" in params:
        # n: through f (a rank-one Jacobian, fres x dsc_dn), through cos,
        # and through the pdf
        gn = (dot(aL, parts["fres"]) * cq)[..., None] * parts["dsc_dn"]
        gn += (aLf * inv_q)[..., None] * d
        gn = np.where(ok[..., None], gn, 0.0) - s_pdf[..., None] * parts["dpdf_dn"]
        sums.append(gn.sum(axis=1))

    dlight = None
    if want_light and pullback is not None:
        dL = adj * f * cq[..., None]
        dlight = pullback(_gather_lanes(dL, ok) / cfg.spp)
    return tuple(sums), dlight


def _shade_blocks(g, camera, shades, cfg, threads, dI=None, params=(), tape=None):
    """Run the kernel over the fixed row blocks, on `threads` workers.

    Each chunk's samples are drawn once, from g's maps, and shaded under
    every (G-buffer, light) pair of `shades`: the pair's G-buffer gives the
    material maps, g the geometry and the shadeable pixels.  Returns, per
    block and in block order, the rows and columns of its shadeable pixels,
    their sums over all samples, and the block's light adjoint (see
    `_estimate`).  With dI None the sums are the value sums, one per shade;
    given the adjoint image dI, `shades` holds one pair, and the sums are
    the adjoint sums of the maps `params` names.  With a sample `tape` (see
    `render_mc`), the one-shade value pass records into it, and the adjoint
    reads its samples and light queries from it when it is not empty."""
    points, view, valid = pixel_geometry(g, camera)
    blocks = _row_blocks(g.depth.shape[0])
    key = (cfg, valid.shape, valid.tobytes())    # what a tape's samples are of
    taped = records = [None] * len(blocks)
    if tape is not None and dI is None:
        tape.clear()
        if np.count_nonzero(valid) * cfg.spp <= _CHUNK_LANES:
            # every block is one chunk; the workers fill these lists in place
            records = [[] for _ in blocks]
            tape.append(key)
            tape.extend(records)
    elif tape:
        if tape[0] != key:
            raise ContractError("sample tape was recorded under another render "
                                "config or for other shadeable pixels")
        taped = tape[1:]

    def run(rows, chunks, record):
        px = _pixels(g, points, view, valid, rows)
        shaded = [(px if gs is g else _pixels(gs, points, view, valid, rows), light)
                  for gs, light in shades]
        n_pix = px.gy.size
        if dI is None:
            adj, acc = None, tuple(np.zeros((n_pix, 3)) for _ in shades)
        else:
            adj = dI[px.gy, px.gx]
            acc = tuple(np.zeros((n_pix,) + getattr(g, name).shape[2:])
                        for name in MATERIAL_NAMES if name in params)
        if chunks is None:
            chunks = ((*_draw(px, cfg, s0, s1), None)
                      for s0, s1 in _sample_chunks(n_pix, cfg.spp))
        dlight = np.zeros(shades[0][1].n_params) if "light" in params else None
        for d, ok, lit in chunks:
            sums = []
            for pxs, light in shaded:
                s, dl = _estimate(pxs, d, ok, light, cfg, adj, params, lit, record)
                sums += s
                if dl is not None:
                    dlight += dl
            for a, s in zip(acc, sums):
                a += s
        return px.gy, px.gx, acc, dlight

    if threads <= 1 or len(blocks) == 1:
        return list(map(run, blocks, taped, records))
    ctx = contextvars.copy_context()    # np.errstate, which a new thread lacks
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda *block: ctx.copy().run(run, *block),
                           blocks, taped, records))


def render_mc(g: GBuffer, camera: Camera, light: LightField, cfg: RenderConfig,
              threads: int = 1, tape: list | None = None) -> np.ndarray:
    """Monte Carlo re-render; returns a float64 (H, W, 3) radiance image.

    `tape` is a list the caller owns, to hand to `render_backward`, which
    then reuses this render's samples instead of replaying them.  The
    render empties it and, if its valid pixels x spp fit in one chunk
    (`_CHUNK_LANES` lanes), records the config, the shadeable-pixel mask
    and, per row block, the sample directions, the lanes the light was
    queried on, the radiance there and, for a light with parameters, the
    `radiance_vjp` pullback, which holds the light's forward state until
    the tape is dropped.  A larger render records nothing."""
    image = np.zeros(g.depth.shape + (3,))
    for gy, gx, (acc,), _ in _shade_blocks(g, camera, [(g, light)], cfg, threads,
                                           tape=tape):
        acc /= cfg.spp
        image[gy, gx] = _finite_pixels(acc, gy, gx)
    return image


def render_backward(g: GBuffer, camera: Camera, light: LightField,
                    cfg: RenderConfig, dI: np.ndarray, threads: int = 1,
                    params=MATERIAL_NAMES,
                    tape: list | None = None) -> dict[str, np.ndarray]:
    """Adjoints of `render_mc` for the adjoint image dI (H, W, 3).

    `params` names the adjoints to form, from PARAM_NAMES: the four
    material maps by default, and "light" for the light's parameters.
    Returns a dict holding exactly the asked names, in PARAM_NAMES order:
    each material's adjoint has the shape of its map, the normal's
    projected onto the tangent plane, and "light" holds the adjoint of the
    light's parameter vector.  An unknown name is a ContractError.  An
    adjoint's bits do not depend on what else was asked.  The BRDF clips
    roughness to [brdf.ROUGHNESS_FLOOR, 1]; at a bound the roughness
    adjoint is the one-sided derivative from inside the interval, the
    left one at 1 and the right one at the floor, and beyond a bound it
    is 0.

    Given the `tape` a `render_mc` call filled, it reads that render's
    samples and light queries (and, for "light", the light's pullbacks)
    from it instead of drawing and querying again; a tape recorded under
    another config or for other shadeable pixels is a ContractError.
    Without a tape, or with an empty one, it replays the samples from the
    seed, so it must be called with the same seed/config as the matching
    forward pass: a seed mismatch is undetectable there and simply yields
    gradients of a different sample set.  Both paths give the same bits.
    """
    params = check_params(params)
    dI = np.asarray(dI, dtype=np.float64)
    if not np.all(np.isfinite(dI)):
        raise ContractError("adjoint image must be finite")
    if dI.shape != g.depth.shape + (3,):
        raise ContractError("adjoint image shape mismatch")
    maps = [name for name in params if name != "light"]
    grad = {name: np.zeros_like(getattr(g, name)) for name in maps}
    if "light" in params:
        grad["light"] = np.zeros(light.n_params)

    inv_n = 1.0 / cfg.spp
    for gy, gx, acc, dlight in _shade_blocks(g, camera, [(g, light)], cfg, threads,
                                             dI, params, tape):  # fixed order
        for name, a in zip(maps, acc):
            a *= inv_n
            if name == "normal":
                # tangent-plane projection of the normal adjoint
                n = g.normal[gy, gx]
                a -= np.sum(a * n, axis=-1, keepdims=True) * n
            grad[name][gy, gx] = a
        if dlight is not None:
            grad["light"] += dlight
    return grad


# ---------------------------------------------------------------------------
# quadrature reference oracle


def reference_render(g: GBuffer, camera: Camera, light: LightField,
                     cells: tuple[int, int] = (64, 128),
                     specular_scale: float = 1.0, mode: str = "split") -> np.ndarray:
    """Deterministic quadrature of the shading integral, used as the ground
    truth the Monte Carlo estimator is judged against.

    mode "cosine": midpoint rule on a cosine-warped grid (exact for
    Lambertian under constant light, adequate for smooth integrands); on a
    coarse grid, the fixed-direction baseline the CLI's `baseline-compare`
    runs, blind to lobes that fall between cell centers.
    mode "split": diffuse term on the cosine grid plus the microfacet term
    on an NDF-warped grid, which resolves sharp specular lobes.
    A non-finite pixel is a RenderNanError naming it; any other mode is a
    ContractError.
    """
    if mode not in ("split", "cosine"):
        raise ContractError(f'unknown reference mode {mode!r}; choose "split" or "cosine"')
    nt, nf = cells
    if nt < 1 or nf < 1:
        raise ContractError(f"reference cells must be at least 1x1, got {nt}x{nf}")
    points, view, valid = pixel_geometry(g, camera)
    h, w = g.depth.shape
    image = np.zeros((h, w, 3))
    u1 = (np.arange(nt) + 0.5) / nt
    u2 = (np.arange(nf) + 0.5) / nf
    uu1, uu2 = np.meshgrid(u1, u2, indexing="ij")
    uu1 = uu1.ravel()
    uu2 = uu2.ravel()
    m = uu1.size

    px = _pixels(g, points, view, valid, slice(0, h))
    n_pix = px.gy.size
    if n_pix == 0:
        return image

    r = np.sqrt(uu1)
    phi = 2.0 * np.pi * uu2
    cos_local = np.stack([r * np.cos(phi), r * np.sin(phi),
                          np.sqrt(np.maximum(1.0 - uu1, 0.0))], axis=-1)

    chunk = max(1, _CHUNK_LANES // m)
    acc = np.zeros((n_pix, 3))
    for a in range(0, n_pix, chunk):
        b = min(a + chunk, n_pix)
        n_v, v_v, alb, rg, mt, p_v = (x[a:b] for x in (px.n, px.v, px.alb, px.rough,
                                                       px.metal, px.p))
        t, bt = orthonormal_basis(n_v)

        d_cos = (cos_local[None, :, 0:1] * t[:, None, :]
                 + cos_local[None, :, 1:2] * bt[:, None, :]
                 + cos_local[None, :, 2:3] * n_v[:, None, :])
        p_rep = np.broadcast_to(p_v[:, None, :], d_cos.shape)
        L_cos = light.radiance(p_rep.reshape(-1, 3), d_cos.reshape(-1, 3)) \
            .reshape(d_cos.shape)

        if mode == "cosine":
            f = brdf._eval_raw(v_v[:, None, :], d_cos, n_v[:, None, :],
                               alb[:, None, :], rg[:, None], mt[:, None],
                               specular_scale)
            acc[a:b] = (np.pi / m) * np.sum(f * L_cos, axis=1)
            continue

        # diffuse term on the cosine grid: E[(1-Mt) A L]
        diff = (1.0 - mt)[:, None] * alb
        acc[a:b] = diff * np.mean(L_cos, axis=1)

        if specular_scale > 0:
            alpha = brdf._alpha(rg)
            tan2 = (alpha[:, None] ** 2) * uu1[None, :] / np.maximum(1.0 - uu1[None, :], 1e-16)
            ch = 1.0 / np.sqrt(1.0 + tan2)
            sh = np.sqrt(np.maximum(1.0 - ch * ch, 0.0))
            h_vec = (sh[..., None] * np.cos(phi)[None, :, None] * t[:, None, :]
                     + sh[..., None] * np.sin(phi)[None, :, None] * bt[:, None, :]
                     + ch[..., None] * n_v[:, None, :])
            vh = dot(v_v[:, None, :], h_vec)
            d_spec = 2.0 * vh[..., None] * h_vec - v_v[:, None, :]
            cos_nd = dot(n_v[:, None, :], d_spec)
            ok = (vh > 1e-9) & (cos_nd > 0)
            cos_nv = dot(n_v[:, None, :], v_v[:, None, :])
            G = (brdf.smith_g1(cos_nv, alpha[:, None])[0]
                 * brdf.smith_g1(cos_nd, alpha[:, None])[0])
            fres, _ = brdf.fresnel_schlick(vh, brdf.f0_of(alb, mt)[:, None, :])
            # integrand / warp density = spec F G L cos_nd vh / (nv nd nh)
            weight = np.where(ok, specular_scale * G * vh
                              / np.maximum(cos_nv * ch, 1e-12), 0.0)
            L_spec, _ = _masked_radiance(light, p_v, d_spec, ok)
            acc[a:b] += np.mean(weight[..., None] * fres * L_spec, axis=1)

    image[px.gy, px.gx] = _finite_pixels(acc, px.gy, px.gx)
    return image
