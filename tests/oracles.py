"""Independent oracles shared by the unit and acceptance suites.

Everything here integrates or enumerates directly (stratified quadrature,
closed forms, exhaustive bins) and never reuses the estimator code paths it
is meant to judge.  `peak_rss_mb` measures a script in a process of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ssdr
from ssdr import brdf, mlp
from ssdr.core import dot, normalize, orthonormal_basis
from ssdr.sampling import uniform_block


def sphere_pdf_integral(params: brdf.BrdfParams, v, n, seed: int,
                        cells: tuple[int, int] = (700, 700),
                        cap_radius: float = 0.5) -> float:
    """Jittered-stratified integral of the sampling density over the whole
    sphere.  A dense polar grid covers a cap around the mirror direction
    (where the specular lobe lives); a global grid covers the complement.
    Roughly 10^6 stratified samples total."""
    def jitter(salt, shape):
        return uniform_block(seed + salt, np.arange(shape[0]), 0, shape[1])

    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    mirror = normalize(2.0 * dot(v, n) * n - v)
    t, b = orthonormal_basis(mirror)
    nt, nf = cells
    total = 0.0

    th = (np.arange(nt)[:, None] + jitter(1, (nt, nf))) / nt * cap_radius
    ph = (np.arange(nf)[None, :] + jitter(2, (nt, nf))) / nf * 2 * np.pi
    st, ct = np.sin(th), np.cos(th)
    d = (st * np.cos(ph))[..., None] * t + (st * np.sin(ph))[..., None] * b \
        + ct[..., None] * mirror
    w = st * (cap_radius / nt) * (2 * np.pi / nf)
    pdf = brdf.sample_pdf_sphere(v, d.reshape(-1, 3), n, params).reshape(nt, nf)
    total += float(np.sum(pdf * w))

    tn, bn = orthonormal_basis(n)
    th = (np.arange(nt)[:, None] + jitter(3, (nt, nf))) / nt * np.pi
    ph = (np.arange(nf)[None, :] + jitter(4, (nt, nf))) / nf * 2 * np.pi
    st, ct = np.sin(th), np.cos(th)
    d = (st * np.cos(ph))[..., None] * tn + (st * np.sin(ph))[..., None] * bn \
        + ct[..., None] * n
    w = st * (np.pi / nt) * (2 * np.pi / nf)
    outside = dot(d, mirror) <= np.cos(cap_radius)
    pdf = brdf.sample_pdf_sphere(v, d.reshape(-1, 3), n, params).reshape(nt, nf)
    total += float(np.sum(np.where(outside, pdf * w, 0.0)))
    return total


def white_furnace_estimate(params: brdf.BrdfParams, v, n, n_samples: int,
                           seed: int):
    """BRDF-importance Monte Carlo estimate of the directional albedo
    integral per channel, plus its standard error."""
    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    u = uniform_block(seed, np.arange(n_samples, dtype=np.uint64), 0, 3)
    d, _, ok = brdf.sample_directions(v, n, params.albedo, params.roughness,
                                      params.metallic, params.specular, u)
    pdf = brdf.mixture_pdf(v, d, n, params.albedo, params.roughness,
                           params.metallic, params.specular)
    ok = ok & (pdf > 0)
    f = brdf._eval_raw(v, d, n, params.albedo, params.roughness,
                       params.metallic, params.specular)
    cos = np.maximum(dot(n, d), 0.0)
    vals = np.where(ok[:, None], f * (cos / np.where(ok, pdf, 1.0))[:, None], 0.0)
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean, se


def chi_square_sampler(params: brdf.BrdfParams, v, n, n_samples: int = 100_000,
                       bins: tuple[int, int] = (16, 32), seed: int = 2024,
                       subgrid: int = 8):
    """Chi-square statistic of sampled directions against the density,
    binned on a (theta, phi) grid plus one rejection bin.  Returns
    (statistic, degrees of freedom)."""
    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    u = uniform_block(seed, np.arange(n_samples, dtype=np.uint64), 0, 3)
    d, _, ok = brdf.sample_directions(v, n, params.albedo, params.roughness,
                                      params.metallic, params.specular, u)
    t, b = orthonormal_basis(n)
    dv = d[ok]
    theta = np.arccos(np.clip(dv @ n, -1.0, 1.0))
    phi = np.mod(np.arctan2(dv @ b, dv @ t), 2 * np.pi)
    nt, nf = bins
    it = np.minimum((theta / (np.pi / 2) * nt).astype(int), nt - 1)
    ip = np.minimum((phi / (2 * np.pi) * nf).astype(int), nf - 1)
    obs = np.zeros(nt * nf + 1)
    np.add.at(obs, it * nf + ip, 1.0)
    obs[-1] = n_samples - int(ok.sum())

    tq = (np.arange(nt * subgrid) + 0.5) / (nt * subgrid) * (np.pi / 2)
    pq = (np.arange(nf * subgrid) + 0.5) / (nf * subgrid) * (2 * np.pi)
    tt, pp = np.meshgrid(tq, pq, indexing="ij")
    dirs = (np.sin(tt)[..., None] * np.cos(pp)[..., None] * t
            + np.sin(tt)[..., None] * np.sin(pp)[..., None] * b
            + np.cos(tt)[..., None] * n)
    w = np.sin(tt) * (np.pi / 2 / (nt * subgrid)) * (2 * np.pi / (nf * subgrid))
    mass = (brdf.pdf(v, dirs.reshape(-1, 3), n, params).reshape(tt.shape) * w)
    per_bin = mass.reshape(nt, subgrid, nf, subgrid).sum(axis=(1, 3))
    exp = np.concatenate([per_bin.ravel(), [1.0 - per_bin.sum()]]) * n_samples

    small = exp < 5.0
    small[-1] = False
    if small.any():  # pool sparse bins into the rejection bin
        obs = np.concatenate([obs[~small], [obs[small].sum()]])
        exp = np.concatenate([exp[~small], [exp[small].sum()]])
        if exp[-1] < 5.0:
            obs[-2] += obs[-1]
            exp[-2] += exp[-1]
            obs, exp = obs[:-1], exp[:-1]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, obs.size - 1


def cosine_grid_dirs(n, cells: tuple[int, int]):
    """Cosine-warped midpoint directions around a single normal."""
    nt, nf = cells
    u1 = (np.arange(nt) + 0.5) / nt
    u2 = (np.arange(nf) + 0.5) / nf
    uu1, uu2 = np.meshgrid(u1, u2, indexing="ij")
    r = np.sqrt(uu1).ravel()
    phi = 2 * np.pi * uu2.ravel()
    z = np.sqrt(np.maximum(1.0 - uu1.ravel(), 0.0))
    t, b = orthonormal_basis(np.asarray(n, dtype=np.float64))
    return (r * np.cos(phi))[:, None] * t + (r * np.sin(phi))[:, None] * b \
        + z[:, None] * np.asarray(n)


def estimate_sums_by_sample(px, d, ok, light, cfg, adj=None, params=(),
                            pairwise=("roughness", "metallic")):
    """Reference for the summation order of `render._estimate`'s per-pixel
    sums over the samples d (n_pix, spp, 3).  It judges the order only: each
    sample's terms are `_estimate` on that sample alone, a one-term sum.
    The sums named in `pairwise` are np.sum over the C-order (n_pix, spp)
    array of their terms, pairwise over the samples; the others, the value
    ("value") or the adjoint sums in MATERIAL_NAMES order, are summed in a
    sequential loop over the samples."""
    from ssdr.render import MATERIAL_NAMES, _estimate

    names = ["value"] if adj is None else [n for n in MATERIAL_NAMES if n in params]
    terms = [_estimate(px, d[:, s:s + 1], ok[:, s:s + 1], light, cfg, adj, params)[0]
             for s in range(d.shape[1])]
    sums = []
    for i, name in enumerate(names):
        per_sample = [t[i] for t in terms]
        if name in pairwise:
            sums.append(np.sum(np.stack(per_sample, axis=1), axis=1))
            continue
        acc = per_sample[0]
        for term in per_sample[1:]:
            acc = acc + term
        sums.append(acc)
    return tuple(sums)


def orthonormal_basis_stacked(n):
    """`core.orthonormal_basis` as `np.stack` of its formulas, each frame
    vector row-major."""
    n = np.asarray(n, dtype=np.float64)
    s = np.where(n[..., 2] >= 0.0, 1.0, -1.0)
    a = -1.0 / (s + n[..., 2])
    b = n[..., 0] * n[..., 1] * a
    t = np.stack([1.0 + s * n[..., 0] ** 2 * a, s * b, -s * n[..., 0]], axis=-1)
    bt = np.stack([b, s + n[..., 1] ** 2 * a, -n[..., 1]], axis=-1)
    return t, bt


def per_pixel_material_fd(g, camera, light, cfg, cls: str, eps: float = 2e-6):
    """Reference for `gradcheck.material_differences`: the same central
    differences, perturbing one pixel at a time and re-evaluating the whole
    frozen set each time (O(n_pix^2 spp)).  Returns (n_pix, k)."""
    from ssdr.core import GBuffer
    from ssdr.gradcheck import frozen_values
    from ssdr.render import pixel_geometry

    gy, gx = np.nonzero(pixel_geometry(g, camera)[2])

    def value(albedo, roughness, metallic, nrm):
        shifted = GBuffer(albedo, nrm, g.depth, roughness, metallic)
        (values,) = frozen_values(g, camera, [(shifted, light)], cfg)
        return values.sum(axis=1)

    rows = []
    for k in range(gy.size):
        y, x = int(gy[k]), int(gx[k])
        row = []
        if cls == "albedo":
            for ch in range(3):
                ap = g.albedo.copy(); am = g.albedo.copy()
                ap[y, x, ch] += eps; am[y, x, ch] -= eps
                row.append((value(ap, g.roughness, g.metallic, g.normal)[k]
                            - value(am, g.roughness, g.metallic, g.normal)[k]) / (2 * eps))
        elif cls == "roughness":
            rp = g.roughness.copy(); rm = g.roughness.copy()
            rp[y, x] += eps; rm[y, x] -= eps
            row.append((value(g.albedo, rp, g.metallic, g.normal)[k]
                        - value(g.albedo, rm, g.metallic, g.normal)[k]) / (2 * eps))
        elif cls == "metallic":
            mp = g.metallic.copy(); mm = g.metallic.copy()
            mp[y, x] += eps; mm[y, x] -= eps
            row.append((value(g.albedo, g.roughness, mp, g.normal)[k]
                        - value(g.albedo, g.roughness, mm, g.normal)[k]) / (2 * eps))
        elif cls == "normal":
            n0 = g.normal[y, x]
            for tv in orthonormal_basis(n0):
                npp = g.normal.copy(); nmm = g.normal.copy()
                npp[y, x] = normalize(n0 + eps * tv)
                nmm[y, x] = normalize(n0 - eps * tv)
                row.append((value(g.albedo, g.roughness, g.metallic, npp)[k]
                            - value(g.albedo, g.roughness, g.metallic, nmm)[k]) / (2 * eps))
        else:
            raise ValueError(f"unknown material class {cls!r}")
        rows.append(row)
    return np.array(rows)


def grid_light_corner_loop(gl, p, d):
    """Reference for `GridLight.radiance`: the original loop over the 32
    corners, one fancy-indexed gather per corner, whole lanes at once.  The
    space-first radiance adds the same terms in another order, so it must
    match it up to rounding."""
    def axis_coords(x, lo, hi, n):
        if n == 1:
            return np.zeros_like(x), np.zeros_like(x, dtype=np.int64)
        t = np.clip((x - lo) / max(hi - lo, 1e-30), 0.0, 1.0) * (n - 1)
        i0 = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
        return t - i0, i0

    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    nx, ny, nz, nt, nph, _ = gl.values.shape

    fr, ir = [], []
    for ax in range(3):
        f, i = axis_coords(p[:, ax], gl.bounds[0, ax], gl.bounds[1, ax],
                           gl.values.shape[ax])
        fr.append(f)
        ir.append(i)

    theta = np.arccos(np.clip(d[:, 2], -1.0, 1.0))
    ft, it = axis_coords(theta, 0.0, np.pi, nt)
    phi = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * np.pi)
    if nph == 1:
        fp = np.zeros_like(phi)
        ip0 = np.zeros_like(phi, dtype=np.int64)
        ip1 = ip0
    else:
        tp = phi / (2.0 * np.pi) * nph
        ip0 = np.floor(tp).astype(np.int64) % nph
        fp = tp - np.floor(tp)
        ip1 = (ip0 + 1) % nph

    out = np.zeros((p.shape[0], 3))
    for bx in (0, 1):
        for by in (0, 1):
            for bz in (0, 1):
                for bt in (0, 1):
                    for bp in (0, 1):
                        wx = fr[0] if bx else 1.0 - fr[0]
                        wy = fr[1] if by else 1.0 - fr[1]
                        wz = fr[2] if bz else 1.0 - fr[2]
                        wt = ft if bt else 1.0 - ft
                        wp = fp if bp else 1.0 - fp
                        w = wx * wy * wz * wt * wp
                        if not np.any(w):
                            continue
                        ix = np.minimum(ir[0] + bx, nx - 1)
                        iy = np.minimum(ir[1] + by, ny - 1)
                        iz = np.minimum(ir[2] + bz, nz - 1)
                        itt = np.minimum(it + bt, nt - 1)
                        ipp = ip1 if bp else ip0
                        out += w[:, None] * gl.values[ix, iy, iz, itt, ipp]
    return out


def sigmoid_masked(x):
    """Reference for `mlp.sigmoid`: the original two-branch body, one
    boolean-mask gather and scatter per sign.  The branch-free form must
    match it byte for byte (NaN sign aside)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus_closed_form(a):
    """Reference for `mlp._softplus_inplace`: its closed form
    max(a, 0) + log1p(exp(-|a|)) over the whole array at once, one
    temporary per operation and no tiles."""
    return np.maximum(a, 0) + np.log1p(np.exp(-np.abs(a)))


def positional_encoding_rowmajor(x, bands):
    """Reference for `lighting.positional_encoding`: the row-major
    construction, one strided column of an (..., D, 2L + 1) array per sin,
    cos and doubling step.  The batch-innermost storage must match its
    bytes."""
    x = np.asarray(x, dtype=np.float64)
    width = 2 * bands + 1
    enc = np.empty((*x.shape, width))
    enc[..., 0] = x
    a = x * np.pi
    s, c = np.sin(a), np.cos(a)
    enc[..., 1], enc[..., 2] = s, c
    for k in range(1, bands):
        s, c = 2.0 * (s * c), (c - s) * (c + s)
        enc[..., 2 * k + 1], enc[..., 2 * k + 2] = s, c
    return enc.reshape(*x.shape[:-1], x.shape[-1] * width)


def softplus_logaddexp(x):
    """Reference for `mlp.softplus`: its original body, numpy's logaddexp
    ufunc, which runs scalar libm."""
    return np.logaddexp(0.0, x)


def _mlp_backward_recomputed(weights, x, dy, softplus_grad):
    """`mlp.backward` on the inputs x, its pre-activations a recomputed:
    dy is pulled back through softplus_grad(a, softplus(a)) at every
    hidden layer.  Returns (dx, dflat)."""
    layers = list(weights.layers())
    h, inputs, pre = np.asarray(x, dtype=np.float64), [], []
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        a = h @ w.T + b
        pre.append(a)
        h = mlp.softplus(a) if i < len(layers) - 1 else a
    da, grads = np.asarray(dy, dtype=np.float64), []
    for i in reversed(range(len(layers))):
        grads.append(np.concatenate([(da.T @ inputs[i]).ravel(), da.sum(axis=0)]))
        da = da @ layers[i][0]
        if i > 0:
            da = da * softplus_grad(pre[i - 1], inputs[i])
    return da, np.concatenate(grads[::-1])


def mlp_backward_sigmoid(weights, x, dy):
    """The logistic reference for `mlp.backward`: softplus'(a) =
    sigmoid(a) of the pre-activation, as the original cache of
    pre-activations gave it.  Not its bytes: a few ulp apart."""
    return _mlp_backward_recomputed(weights, x, dy, lambda a, h: mlp.sigmoid(a))


def mlp_backward_expm1(weights, x, dy):
    """Bytes reference for `mlp.backward`: softplus'(a) = 1 - exp(-h) =
    -expm1(-h) of the activation h = softplus(a), the only per-layer
    state its cache keeps."""
    return _mlp_backward_recomputed(weights, x, dy, lambda a, h: -np.expm1(-h))


def peak_rss_mb(script: str) -> float:
    """The peak RSS, in MB, of `script` run in a process of its own with
    BLAS at one thread; the script prints its ru_maxrss last."""
    env = {**os.environ, "PYTHONPATH": str(Path(ssdr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1]) / 1024   # ru_maxrss is in KiB on Linux
