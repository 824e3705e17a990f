import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (chi_square_sampler, orthonormal_basis_stacked, sphere_pdf_integral,
                     white_furnace_estimate)
from ssdr import brdf
from ssdr.core import dot, normalize, orthonormal_basis
from ssdr.render import _lane_layout
from ssdr.sampling import uniform_block

N_UP = np.array([0.0, 0.0, 1.0])
V30 = normalize(np.array([0.5, 0.0, np.sqrt(3) / 2]))

# a material is (albedo, roughness, metallic, specular), as brdf's functions
# take it unpacked


def test_diffuse_value_exact():
    f = brdf._eval_raw(V30, N_UP, N_UP, (0.9, 0.9, 0.9), 1.0, 0.0, 0.0)
    assert np.allclose(f, 0.9 / np.pi, atol=1e-12)


def test_metal_has_no_diffuse():
    metal = ((0.8, 0.2, 0.1), 0.6, 1.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(32):
        d = normalize(rng.normal(size=3) * [1, 1, 1] + [0, 0, 1.5])
        if d[2] <= 0:
            continue
        full = brdf._eval_raw(V30, d, N_UP, *metal)
        spec_only = brdf._eval_raw(V30, d, N_UP, (0.8, 0.2, 0.1), 0.6, 1.0, 1.0)
        assert np.allclose(full, spec_only)
    # and with the microfacet term off a metal reflects nothing at all
    dark = brdf._eval_raw(V30, N_UP, N_UP, (0.8, 0.2, 0.1), 0.6, 1.0, 0.0)
    assert np.allclose(dark, 0.0)


def test_eval_below_horizon_zero():
    d = normalize(np.array([0.3, 0.1, -0.8]))
    assert np.allclose(brdf._eval_raw(V30, d, N_UP, (0.5, 0.5, 0.5), 0.4, 0.3, 1.0), 0.0)


@pytest.mark.parametrize("roughness", [0.1, 0.5, 1.0])
def test_white_furnace_bound(roughness):
    mean, se = white_furnace_estimate(((1.0, 1.0, 1.0), roughness, 1.0, 1.0), V30, N_UP,
                                      n_samples=200_000, seed=17)
    assert np.all(mean <= 1.0 + 3.0 * se)
    assert np.all(mean > 0.3)  # sanity: a white metal does reflect


def test_pure_diffuse_pdf_closed_form():
    assert np.isclose(float(brdf.diffuse_pdf(dot(N_UP, N_UP))), 1.0 / np.pi)
    mat = ((0.7, 0.7, 0.7), 1.0, 0.0, 0.0)
    assert np.isclose(float(brdf.mixture_pdf(V30, N_UP, N_UP, *mat)), 1.0 / np.pi)
    rng = np.random.default_rng(1)
    d = normalize(rng.normal(size=(64, 3)) + [0, 0, 2.0])
    assert np.allclose(brdf.mixture_pdf(V30, d, N_UP, *mat),
                       np.maximum(d[:, 2], 0.0) / np.pi)


def test_pdf_below_horizon_zero():
    d = normalize(np.array([0.1, 0.2, -0.9]))
    assert float(brdf.mixture_pdf(V30, d, N_UP, (0.7, 0.7, 0.7), 0.5, 0.5, 1.0)) == 0.0


@pytest.mark.parametrize("roughness,metallic",
                         [(0.1, 0.0), (0.1, 1.0), (0.5, 0.5), (1.0, 0.0), (1.0, 1.0)])
def test_sampling_density_normalization(roughness, metallic):
    integral = sphere_pdf_integral(((0.7, 0.6, 0.5), roughness, metallic, 1.0), V30, N_UP,
                                   seed=123, cells=(500, 500))
    assert abs(integral - 1.0) < 0.01


def test_sample_pdf_consistency():
    """The pdf the render pairs with each valid `sample_directions` draw,
    `mixture_pdf` over arrays of materials, is positive and is
    `mixture_pdf` of that draw's own material alone."""
    rng = np.random.default_rng(4)
    lanes = []
    for k in range(300):
        material = (rng.uniform(0.05, 1.0, 3), rng.uniform(0.02, 1.0),
                    rng.uniform(0.0, 1.0), 1.0)
        n = normalize(rng.normal(size=3))
        v = normalize(rng.normal(size=3))
        if dot(v, n) > 0.05:
            lanes.append((material, v, n, uniform_block(k, 1, 2, 3)))
    materials, v, n, u = zip(*lanes)
    v, n, u = np.array(v), np.array(n), np.array(u)
    mat = tuple(np.array(column) for column in zip(*materials))
    d, _, valid = brdf.sample_directions(v, n, *mat, u)
    q = brdf.mixture_pdf(v, d, n, *mat)
    checked = 0
    for i in np.flatnonzero(valid):
        direct = float(brdf.mixture_pdf(v[i], d[i], n[i], *materials[i]))
        assert q[i] > 0 and abs(q[i] - direct) / direct <= 1e-6
        checked += 1
    assert checked > 100


def test_smooth_roughness_mirror_limit():
    mirror = 2.0 * dot(V30, N_UP) * N_UP - V30
    u = uniform_block(9, np.arange(2000, dtype=np.uint64), 0, 3)
    d, spec, ok = brdf.sample_directions(V30, N_UP, (0.9, 0.9, 0.9), 0.01, 1.0, 1.0, u)
    assert spec.all()
    ang = np.arccos(np.clip(d[ok] @ mirror, -1, 1))
    assert np.mean(ang < 1e-2) >= 0.99


def test_invalid_samples_reported_with_zero_pdf():
    # grazing view on a rough metal mirrors many samples below the horizon
    v = normalize(np.array([0.995, 0.0, 0.0999]))
    metal = ((0.9, 0.9, 0.9), 0.9, 1.0, 1.0)
    u = np.array([uniform_block(k, 0, 0, 3) for k in range(200)])
    d, _, valid = brdf.sample_directions(v, N_UP, *metal, u)
    below = dot(d, N_UP) <= 0
    assert np.count_nonzero(~valid) > 10  # the caller must be able to skip them
    assert np.count_nonzero(below) > 10 and not valid[below].any()
    assert np.all(brdf.mixture_pdf(v, d[below], N_UP, *metal) == 0.0)


def test_metal_always_specular_lobe():
    u = uniform_block(11, np.arange(512, dtype=np.uint64), 0, 3)
    _, spec, _ = brdf.sample_directions(V30, N_UP, (0.3, 0.3, 0.3), 0.4, 1.0, 1.0, u)
    assert spec.all()


def test_chi_square_sampler_agreement():
    stat, dof = chi_square_sampler(((0.6, 0.6, 0.6), 0.5, 0.5, 1.0), V30, N_UP,
                                   n_samples=100_000, seed=2024)
    assert stat < stats.chi2.ppf(0.95, dof)


def test_specular_reciprocity():
    rng = np.random.default_rng(8)
    metal = ((0.7, 0.5, 0.4), 0.35, 1.0, 1.0)
    for _ in range(64):
        n = normalize(rng.normal(size=3))
        v = normalize(rng.normal(size=3))
        d = normalize(rng.normal(size=3))
        if dot(v, n) <= 1e-3 or dot(d, n) <= 1e-3:
            continue
        assert np.allclose(brdf._eval_raw(v, d, n, *metal), brdf._eval_raw(d, v, n, *metal),
                           rtol=1e-10, atol=1e-12)


@given(st.floats(0.01, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_eval_pdf_continuous_in_material(roughness, metallic):
    d = normalize(np.array([0.4, -0.2, 0.6]))
    eps = 1e-5
    mat = ((0.6, 0.6, 0.6), roughness, metallic, 1.0)
    base_f = brdf._eval_raw(V30, d, N_UP, *mat)
    base_p = float(brdf.mixture_pdf(V30, d, N_UP, *mat))
    bumped = ((0.6, 0.6, 0.6), min(roughness + eps, 1.0), min(metallic + eps, 1.0), 1.0)
    assert np.all(np.abs(brdf._eval_raw(V30, d, N_UP, *bumped) - base_f) < 1e-2)
    assert abs(float(brdf.mixture_pdf(V30, d, N_UP, *bumped)) - base_p) < 1e-2


def test_finite_difference_partials_exist():
    # derivative stencils stay finite across the roughness floor
    d = normalize(np.array([0.2, 0.1, 0.95]))
    for r in (0.01, 0.05, 0.5, 0.99):
        lo = brdf._eval_raw(V30, d, N_UP, (0.6, 0.6, 0.6), max(r - 1e-6, 0.0), 0.7, 1.0)
        hi = brdf._eval_raw(V30, d, N_UP, (0.6, 0.6, 0.6), r + 1e-6, 0.7, 1.0)
        assert np.all(np.isfinite((hi - lo) / 2e-6))


@pytest.mark.parametrize("specular", [0.0, 0.5, 1.0])
def test_adjoint_pdf_is_the_forward_pdf_bytes(specular):
    """The adjoint's f and pdf are the forward's, bit for bit, on every
    lane: sampled directions, invalid ones included, and uniformly random
    ones, some below the horizon.  A render's sample tape gates its light
    query with the forward pdf, and the adjoint that reads the tape relies
    on the gate."""
    rng = np.random.default_rng(0)
    m = 20000
    n = normalize(rng.normal(size=(m, 3)))
    v = normalize(n + 0.8 * rng.normal(size=(m, 3)))
    albedo = rng.uniform(0.0, 1.0, (m, 3))
    albedo[: m // 4] = 0.0
    roughness = rng.uniform(0.0, 1.0, m)
    roughness[: m // 8] = 0.0
    metallic = rng.uniform(0.0, 1.0, m)
    metallic[m // 4: m // 2] = 1.0
    u = uniform_block(3, np.arange(m, dtype=np.uint64), 0, 3)
    args = (n, albedo, roughness, metallic, specular)
    d, _, valid = brdf.sample_directions(v, *args, u)
    assert np.count_nonzero(valid) > m // 2
    uniform = normalize(rng.normal(size=(m, 3)))
    assert np.count_nonzero(dot(n, uniform) <= 0) > m // 4
    for dirs in (d, uniform):
        adjoint = brdf.eval_pdf_with_partials(v, dirs, *args)
        assert brdf.mixture_pdf(v, dirs, *args).tobytes() == adjoint["pdf"].tobytes()
        assert brdf._eval_raw(v, dirs, *args).tobytes() == adjoint["f"].tobytes()


def _component_major(a):
    """The values of `a` (..., 3) in a copy stored component-major, memory
    (3, ...)."""
    return np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1)


@pytest.mark.parametrize("specular", [0.0, 0.5, 1.0])
def test_brdf_bytes_do_not_depend_on_the_lane_layout(specular):
    """Sampling, f, the pdf and every partial give the same bytes for
    row-major inputs and for copies of them stored component-major, memory
    (3, spp, n_pix), or in the render's lane layout, (spp, 3, n_pix): on
    sampled and on random directions, with below-horizon lanes and
    back-facing half vectors among them."""
    rng = np.random.default_rng(8)
    n_pix, spp = 64, 32
    n = normalize(rng.normal(size=(n_pix, 1, 3)))
    v = normalize(n + 0.8 * rng.normal(size=(n_pix, 1, 3)))
    albedo = rng.uniform(0.0, 1.0, (n_pix, 1, 3))
    albedo[:8] = 0.0
    roughness = rng.uniform(0.0, 1.0, (n_pix, 1))
    roughness[:4] = 0.0
    metallic = rng.uniform(0.0, 1.0, (n_pix, 1))
    metallic[8:16] = 1.0
    u = uniform_block(5, np.arange(n_pix, dtype=np.uint64)[:, None],
                      np.arange(spp, dtype=np.uint64)[None, :], 3)
    uniform = normalize(rng.normal(size=(n_pix, spp, 3)))
    assert np.any(dot(n, uniform) <= 0)
    assert np.any(dot(n, normalize(v + uniform)) <= 0)
    material = (roughness, metallic, specular)

    def outputs(v, n, albedo, u, uniform):
        d, spec, valid = brdf.sample_directions(v, n, albedo, *material, u)
        out = {"d": d, "spec": spec, "valid": valid}
        for tag, dirs in (("sampled", d), ("uniform", uniform)):
            args = (v, dirs, n, albedo, *material)
            out[tag, "f"] = brdf._eval_raw(*args)
            out[tag, "pdf"] = brdf.mixture_pdf(*args)
            for key, val in brdf.eval_pdf_with_partials(*args).items():
                out[tag, "partials", key] = val
        return out

    row = outputs(v, n, albedo, u, uniform)
    assert specular == 0.0 or not row["valid"].all()
    for layout in (_component_major, _lane_layout):
        lane = outputs(*(layout(a) for a in (v, n, albedo, u, uniform)))
        assert row.keys() == lane.keys()
        for key in row:
            assert row[key].tobytes() == lane[key].tobytes(), (layout.__name__, key)
    # lane-layout inputs give lane-layout albedo partials, as f is stored,
    # with lanes inside the F90 clamp and with none (F0 >= 0.04 when every
    # albedo channel is)
    for alb in (albedo, np.maximum(albedo, 0.04)):
        parts = brdf.eval_pdf_with_partials(
            *(_lane_layout(a) for a in (v, uniform, n, alb)), *material)
        for key in ("df_dA", "dpdf_dA"):
            assert parts[key].strides == parts["f"].strides, key


def test_sampled_bytes_do_not_depend_on_the_call_layout():
    """The same lanes drawn in the render's lane layout, in row-major
    order and one lane per call give the same d, lobe and validity bytes:
    the azimuth's tangent runs the same loop on every layout and length."""
    rng = np.random.default_rng(12)
    n_pix, spp = 64, 64
    n = normalize(rng.normal(size=(n_pix, 3)))
    v = normalize(n + 0.8 * rng.normal(size=(n_pix, 3)))
    albedo = rng.uniform(0.0, 1.0, (n_pix, 3))
    roughness = rng.uniform(0.0, 1.0, n_pix)
    metallic = rng.uniform(0.0, 1.0, n_pix)
    metallic[:16] = 1.0
    u = uniform_block(6, np.arange(n_pix, dtype=np.uint64)[:, None],
                      np.arange(spp, dtype=np.uint64)[None, :], 3)
    u[:4, :4, 2] = [[0.0, 0.25, 0.5, 0.75], [2.0 ** -53, 0.5 - 2.0 ** -53,
                    0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53], [0.125, 0.375, 0.625, 0.875],
                    [1e-9, 0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-9]]
    material = (roughness[:, None], metallic[:, None], 1.0)

    def draw(v, n, albedo, u):
        return brdf.sample_directions(v, n, albedo, *material, u)

    row = draw(v[:, None], n[:, None], albedo[:, None], u)
    lane = draw(*(_lane_layout(a)[:, None] for a in (v, n, albedo)), _lane_layout(u))
    assert lane[0].strides != row[0].strides
    one = [brdf.sample_directions(v[i], n[i], albedo[i], roughness[i], metallic[i], 1.0,
                                  u[i, j]) for i in range(n_pix) for j in range(spp)]
    assert 0 < np.count_nonzero(row[1]) < row[1].size
    assert 0 < np.count_nonzero(row[2]) < row[2].size
    for k, name in enumerate(("d", "is_specular", "valid")):
        want = row[k].tobytes()
        assert np.ascontiguousarray(lane[k]).tobytes() == want, ("lane layout", name)
        assert np.array([lane_out[k] for lane_out in one]).tobytes() == want, \
            ("one lane per call", name)


def test_azimuth_is_within_1e15_of_libm():
    """The sampler's (cos 2 pi u, sin 2 pi u) from one tangent is within
    1e-15 of np.cos and np.sin of 2 pi u on 10^6 uniforms and the edge
    values, exactly (1, 0) at u = 0, and of unit norm to 4 eps."""
    edges = np.array([0.0, 0.25, 0.5, 0.75, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.5 + 2.0 ** -53,
                      1.0 - 2.0 ** -53, 0.125, 0.375, 0.625, 0.875])
    u = np.concatenate([edges, np.random.default_rng(35).random(10 ** 6)])
    cos_phi, sin_phi = brdf._azimuth(u)
    phi = 2.0 * np.pi * u
    assert np.abs(cos_phi - np.cos(phi)).max() <= 1e-15
    assert np.abs(sin_phi - np.sin(phi)).max() <= 1e-15
    assert np.abs(cos_phi * cos_phi + sin_phi * sin_phi - 1.0).max() <= 4 * np.finfo(float).eps
    assert (cos_phi[0], sin_phi[0]) == (1.0, 0.0)
    at_zero = brdf._azimuth(np.zeros(()))
    assert (float(at_zero[0]), float(at_zero[1])) == (1.0, 0.0)


@pytest.mark.parametrize("shape", [(50, 3), (8, 6, 3), (8, 1, 3)])
def test_orthonormal_basis_keeps_the_bytes_in_the_input_layout(shape):
    """The frame is the np.stack form's bytes, stored in the layout of the
    normals: row-major for row-major normals, component-major for
    component-major ones."""
    n = normalize(np.random.default_rng(2).normal(size=shape))
    n[0] = [0.0, 0.0, -1.0]
    for normals, layout in ((n, lambda a: a),
                            (_component_major(n), lambda a: np.moveaxis(a, -1, 0))):
        assert layout(normals).flags.c_contiguous
        for got, want in zip(orthonormal_basis(normals), orthonormal_basis_stacked(n)):
            assert got.tobytes() == want.tobytes()
            assert layout(got).flags.c_contiguous


def test_each_view_forms_only_its_own_half(monkeypatch):
    """`mixture_pdf` forms no G, F0 or Fresnel term and `_eval_raw` no lobe
    weights or diffuse pdf, so the render's value pass, which calls both,
    forms each half once."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(64, np.random.default_rng(7))
    args = (v, d, n, albedo, roughness, metallic, 1.0)
    full = brdf.eval_pdf_with_partials(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("formed a term of the other half")

    with monkeypatch.context() as mp:
        for name in ("smith_g1", "f0_of", "fresnel_schlick"):
            mp.setattr(brdf, name, refuse)
        assert brdf.mixture_pdf(*args).tobytes() == full["pdf"].tobytes()
    with monkeypatch.context() as mp:
        for name in ("lobe_weights", "diffuse_pdf"):
            mp.setattr(brdf, name, refuse)
        assert brdf._eval_raw(*args).tobytes() == full["f"].tobytes()


@pytest.mark.parametrize("specular", [0.0, 0.5, 1.0])
def test_shared_half_terms_keep_the_views_bytes(specular):
    """`mixture_pdf` and `_eval_raw` handed the lanes' `_half_terms` give the
    bytes of the calls that form them, in row-major and in lane-layout
    inputs: on lanes below the horizon, with back-facing half vectors, with
    F0 inside the F90 clamp and with roughness below ROUGHNESS_FLOOR.  The
    shared record holds no half vector and no t."""
    rng = np.random.default_rng(11)
    n_pix, spp = 48, 16
    n = normalize(rng.normal(size=(n_pix, 1, 3)))
    v = normalize(n + 0.8 * rng.normal(size=(n_pix, 1, 3)))
    albedo = rng.uniform(0.0, 1.0, (n_pix, 1, 3))
    albedo[:8] = 0.01
    roughness = rng.uniform(0.0, 1.0, (n_pix, 1))
    roughness[:6] = 0.002
    metallic = rng.uniform(0.0, 1.0, (n_pix, 1))
    metallic[:8] = 0.9
    d = normalize(rng.normal(size=(n_pix, spp, 3)))
    assert np.any(dot(n, d) <= 0)
    assert np.any(dot(n, normalize(v + d)) <= 0)
    f0 = brdf.f0_of(albedo, metallic)
    assert np.any((f0 > 0) & (f0 < 0.02))
    for layout in (lambda a: a, _lane_layout):
        lanes = [layout(a) for a in (v, d, n, albedo)]
        args = (*lanes, roughness, metallic, specular)
        terms = brdf._half_terms(*lanes[:3], roughness, keep=())
        assert terms.t is None and terms.m is None
        assert brdf.mixture_pdf(*args, terms=terms).tobytes() == \
            brdf.mixture_pdf(*args).tobytes()
        assert brdf._eval_raw(*args, terms=terms).tobytes() == \
            brdf._eval_raw(*args).tobytes()


def _smooth_lanes(count, rng):
    """`count` random lanes away from every kink of f and the pdf: cos_nv,
    cos_nd, cos_nm and v.m above 0.2, roughness in (0.05, 0.95) and each
    channel's F0 at least 0.005 from the F90 clamp's 0.02."""
    lanes = []
    while sum(len(x[0]) for x in lanes) < count:
        m = 4 * count
        n = normalize(rng.normal(size=(m, 3)))
        v = normalize(n + 0.8 * rng.normal(size=(m, 3)))
        d = normalize(n + 0.8 * rng.normal(size=(m, 3)))
        albedo = rng.uniform(0.0, 1.0, (m, 3))
        roughness = rng.uniform(0.05, 0.95, m)
        metallic = rng.uniform(0.0, 1.0, m)
        h = normalize(v + d)
        f0 = brdf.f0_of(albedo, metallic)
        keep = ((dot(n, v) > 0.2) & (dot(n, d) > 0.2) & (dot(n, h) > 0.2)
                & (dot(v, h) > 0.2) & np.all(np.abs(f0 - 0.02) > 0.005, axis=-1))
        lanes.append(tuple(a[keep] for a in (v, d, n, albedo, roughness, metallic)))
    return tuple(np.concatenate(parts)[:count] for parts in zip(*lanes))


@pytest.mark.parametrize("specular", [0.5, 1.0])
def test_partials_match_central_differences(specular):
    """Every partial `eval_pdf_with_partials` returns, the normal's rebuilt
    from its rank-one factors, is the central difference of `_eval_raw`
    (f) and `mixture_pdf` (pdf), on 256 lanes away from the kinks.  The
    directions are held fixed and n is perturbed as a free 3-vector, as
    the render adjoint differentiates it."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(256, np.random.default_rng(4))
    parts = brdf.eval_pdf_with_partials(v, d, n, albedo, roughness, metallic, specular)
    df_dn = parts["fres"][:, :, None] * parts["dsc_dn"][:, None, :]
    eps = 1e-6

    def central(name, index):
        args = {"v": v, "d": d, "n": n, "albedo": albedo,
                "roughness": roughness, "metallic": metallic}
        out = []
        for sign in (1.0, -1.0):
            x = args[name].copy()
            x[index] += sign * eps
            a = dict(args, **{name: x})
            call = (a["v"], a["d"], a["n"], a["albedo"], a["roughness"], a["metallic"],
                    specular)
            out.append((brdf._eval_raw(*call), brdf.mixture_pdf(*call)))
        (f_hi, p_hi), (f_lo, p_lo) = out
        return (f_hi - f_lo) / (2 * eps), (p_hi - p_lo) / (2 * eps)

    def close(fd, adj):
        assert np.allclose(fd, adj, rtol=1e-5, atol=1e-6 * (1.0 + np.abs(adj).max()))

    everything = np.s_[:]
    for name, df, dpdf in (("roughness", parts["df_dR"], parts["dpdf_dR"]),
                           ("metallic", parts["df_dM"], parts["dpdf_dM"])):
        fd_f, fd_p = central(name, everything)
        close(fd_f, df)
        close(fd_p, dpdf)
    for c in range(3):
        fd_f, fd_p = central("albedo", (everything, c))
        close(fd_f[:, c], parts["df_dA"][:, c])
        close(fd_f[:, [k for k in range(3) if k != c]], 0.0)   # diagonal in channels
        close(fd_p, parts["dpdf_dA"][:, c])
        fd_f, fd_p = central("n", (everything, c))
        close(fd_f, df_dn[:, :, c])
        close(fd_p, parts["dpdf_dn"][:, c])


def test_partials_skip_what_is_not_asked():
    """Only the metallic and normal partials are optional; the rest keep
    their bytes whatever is asked."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(64, np.random.default_rng(5))
    args = (v, d, n, albedo, roughness, metallic, 1.0)
    full = brdf.eval_pdf_with_partials(*args)
    always = {"f", "pdf", "df_dA", "df_dR", "dpdf_dA", "dpdf_dR"}
    extra = {"metallic": {"df_dM", "dpdf_dM"}, "normal": {"fres", "dsc_dn", "dpdf_dn"}}
    assert set(full) == always | extra["metallic"] | extra["normal"]
    for params in ((), ("albedo", "roughness"), ("metallic",), ("normal", "light")):
        some = brdf.eval_pdf_with_partials(*args, params)
        want = always.union(*(extra.get(p, set()) for p in params))
        assert set(some) == want
        for key in want:
            assert some[key].tobytes() == full[key].tobytes(), key


def test_partials_outside_the_f90_clamp_keep_their_bytes():
    """The F90 clamp's term of dF/dF0 is formed only when some F0 lies in
    (0, 0.02): the lanes outside the clamp have the same bytes in a call
    that has lanes inside it and in one that has none."""
    v, d, n, albedo, roughness, metallic = _smooth_lanes(256, np.random.default_rng(6))
    f0 = brdf.f0_of(albedo, metallic)
    inside = np.any((f0 > 0) & (f0 < 0.02), axis=-1)
    assert 0 < np.count_nonzero(inside) < inside.size

    def partials(lanes):
        return brdf.eval_pdf_with_partials(v[lanes], d[lanes], n[lanes], albedo[lanes],
                                           roughness[lanes], metallic[lanes], 1.0)

    mixed, outside = partials(np.s_[:]), partials(~inside)
    assert set(mixed) == set(outside)
    for key in mixed:
        assert mixed[key][~inside].tobytes() == outside[key].tobytes(), key
