"""Atomic measure families and their transforms, evaluated in log-space."""

import cmath
import gc
import hashlib
import json
import math
import pathlib
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from tauberlab import atoms, weights
from tauberlab.atoms import (
    atoms_outside_region,
    build_family,
    default_t_grid,
    default_z_samples,
    green_G,
    laplace_L,
    primitive_N,
    roots_identity,
    stirling_bounds_check,
    taylor_remainder_check,
    verify_prop52,
)
from tauberlab.atoms import _green_series, _log_factorials, _main_rows, _phase_columns, \
    _row_sums
from conftest import prop52_inputs
from tauberlab.logspace import _to_complex_array, log_from_sums, to_complex

CANCEL_TOL = 1e-25
BACKEND_TOL = 1e-10
ROOTS_TOL = 1e-12
DERIV_TOL = 1e-6


def _unit_disc_z(draw_re, draw_im):
    z = complex(draw_re, draw_im)
    return z / max(1.0, abs(z))


# ----------------------------------------------------------------------
# build_family
# ----------------------------------------------------------------------

class TestBuildFamily:
    def test_fourth_root_of_unity(self):
        fam = build_family("power", 4, 2.0, 2.0)
        q = cmath.exp(2j * math.pi / fam.k)
        assert q == pytest.approx(1j, abs=1e-15)

    def test_circle_scale_formula(self):
        fam = build_family("power", 10, 2.0, 2.0)
        assert fam.circle_scale == pytest.approx(20.0 * math.log(10.0), rel=1e-14)

    def test_height_solves_budget_equation(self):
        # gamma defaults to (beta - alpha/2)/2 = 0.5 here
        fam = build_family("power", 10, 2.0, 2.0)
        assert fam.gamma == pytest.approx(0.5)
        H = fam.height
        assert abs(0.5 * H * H * math.log(H) - 10.0) <= 1e-10

    def test_log_variant_base_formula(self):
        fam = build_family("log", 16, 1.0)
        H = fam.height
        assert H == pytest.approx(math.exp(16.0 ** 0.5), rel=1e-12)
        assert fam.base == pytest.approx(1j * H - 1.0 - 2.0 / math.log(H), rel=1e-12)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            build_family("power", 2, 2.0, 2.0)

    def test_exponent_window_rejected(self):
        with pytest.raises(ValueError):
            build_family("power", 10, 2.0, 1.0)

    @pytest.mark.parametrize("variant,k,alpha,beta", [
        ("power", 8, 2.0, 2.0),
        ("power", 24, 1.0, 1.0),
        ("log", 20, 1.0, None),
    ])
    def test_atoms_sit_outside_resolvent_region(self, variant, k, alpha, beta):
        assert atoms_outside_region(build_family(variant, k, alpha, beta))


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

class TestTransforms:
    def test_time_signal_vanishes_at_zero(self):
        for k in (3, 7, 15):
            fam = build_family("power", k, 2.0, 2.0)
            assert abs(laplace_L(fam, 0.0, backend="oracle")) <= CANCEL_TOL

    def test_primitive_vanishes_at_zero(self):
        for k in (3, 9):
            fam = build_family("power", k, 2.0, 2.0)
            assert abs(primitive_N(fam, 0.0, backend="oracle")) <= CANCEL_TOL

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_series_matches_oracle(self, t):
        fam = build_family("power", 5, 2.0, 2.0)
        s = laplace_L(fam, t, backend="series")
        o = laplace_L(fam, t, backend="oracle")
        assert abs(s - o) / max(abs(o), 1e-30) <= BACKEND_TOL

    def test_series_matches_oracle_across_k(self):
        for k in (8, 17, 30):
            fam = build_family("power", k, 2.0, 2.0)
            for t in (0.5 * k, 1.0 * k, 1.7 * k):
                s = primitive_N(fam, t, backend="series")
                o = primitive_N(fam, t, backend="oracle")
                assert abs(s - o) / max(abs(o), 1e-30) <= BACKEND_TOL

    def test_derivative_of_primitive_is_signal(self):
        fam = build_family("power", 10, 2.0, 2.0)
        h = 1e-4
        for t in (6.0, 10.0, 14.0):
            fd = (primitive_N(fam, t + h) - primitive_N(fam, t - h)) / (2.0 * h)
            ref = laplace_L(fam, t)
            assert abs(fd - ref) / max(abs(ref), 1e-12) <= DERIV_TOL

    @pytest.mark.parametrize("fn,backend", [
        *((fn, backend) for fn in ("laplace_L", "primitive_N", "green_G")
          for backend in ("series", "oracle")),
        pytest.param("laplace_L_log", None, id="laplace_L_log"),
        pytest.param("primitive_N_log", None, id="primitive_N_log"),
    ])
    @pytest.mark.parametrize("bad,message", [
        pytest.param(math.nan, "t must be finite", id="nan"),
        pytest.param(math.inf, "t must be finite", id="inf"),
        pytest.param(-1.0, "t must be >= 0", id="negative"),
    ])
    def test_non_finite_t_is_refused_before_any_work(self, monkeypatch, bad, message,
                                                     fn, backend):
        fam = build_family("power", 10, 2.0, 2.0)
        z = default_z_samples(fam, n=1)[0]

        def no_work(*args, **kwargs):
            raise AssertionError("series or oracle work started")

        for name in ("_series_tail_sums", "_green_blocks", "_oracle_map"):
            monkeypatch.setattr(atoms, name, no_work)
        call = getattr(atoms, fn)
        args = (z,) if fn == "green_G" else ()
        kwargs = {} if backend is None else {"backend": backend}
        for t in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match=message):
                call(fam, t, *args, **kwargs)

    def test_moving_resolvent_transform_finite_on_samples(self):
        fam = build_family("power", 10, 2.0, 2.0)
        M = weights.PowerRate(1.0, fam.alpha)
        for z in default_z_samples(fam, n=8):
            assert weights.omega_m_contains(M, complex(z))
            val = green_G(fam, 5.0, complex(z))
            assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_moving_resolvent_backends_agree(self):
        fam = build_family("power", 9, 2.0, 2.0)
        z = 0.5 + 4.0j
        s = green_G(fam, 3.0, z, backend="series")
        o = green_G(fam, 3.0, z, backend="oracle")
        assert abs(s - o) / max(abs(o), 1e-30) <= BACKEND_TOL

    @pytest.mark.parametrize("k", [20, 30])
    def test_series_matches_oracle_at_small_t(self, k):
        # near t = 0 the k oracle terms cancel to t^(k-1)/(k-1)!, so the
        # oracle needs digits for that cancellation to stay the arbiter
        fam = build_family("power", k, 2.0, 2.0)
        tg = default_t_grid(fam)
        tg = tg[tg <= 0.01]
        assert tg[0] == 0.0 and tg.size > 20
        for f in (laplace_L, primitive_N):
            oracle, series = f(fam, tg, backend="oracle"), f(fam, tg)
            gap = np.abs(oracle - series)
            scale = np.maximum(np.abs(oracle), np.abs(series))
            limit = np.where(tg == 0, CANCEL_TOL, BACKEND_TOL * scale)
            assert np.all(gap <= limit), tg[gap > limit]


# ----------------------------------------------------------------------
# G series: exact agreement with recorded values
# ----------------------------------------------------------------------

# float.hex of every value, recorded with the G series engine as it stood
# before its t-independent work was hoisted out; a speed-up of the engine
# must reproduce each bit
GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("green_golden.json")).read_text())


def _hex_pair(v):
    v = complex(v)
    return [v.real.hex(), v.imag.hex()]


def _hex_list(values):
    return [float(x).hex() for x in values]


def _tile_layouts(monkeypatch):
    """The default column tiles of G's series, then 2-column tiles, with a
    seam after every second t: no value may move."""
    yield "default"
    monkeypatch.setattr(atoms, "TILE_POINTS", 1)
    monkeypatch.setattr(atoms, "TILE_MIN_COLUMNS", 2)
    yield "2-column"


class TestGreenGolden:
    def test_power_k10_at_zero_and_positive_t(self):
        rec = GOLDEN["power_k10"]
        fam = build_family("power", 10, 2.0, 2.0)
        zs = default_z_samples(fam, n=4)
        assert [_hex_pair(z) for z in zs] == rec["z"]
        assert [_hex_pair(green_G(fam, 0.0, z)) for z in zs] == rec["G_t0"]
        assert [_hex_pair(green_G(fam, 3.0, z)) for z in zs] == rec["G_t3"]

    def test_log_k2502_on_default_grid(self):
        # most of these values underflow as complex numbers, so the log
        # magnitude and phase the engine returns are pinned as well
        rec = GOLDEN["log_k2502"]
        fam = build_family("log", 2502, 1.0)
        t = default_t_grid(fam)[::10][:40]
        assert t[0] == 0.0
        assert _hex_list(t) == rec["t"]
        zs = default_z_samples(fam, n=4)[[0, 3]]
        assert [_hex_pair(z) for z in zs] == rec["z"]
        for i, z in enumerate(zs):
            assert [_hex_pair(v) for v in green_G(fam, t, z)] == rec["G"][i]
            lm, ph = _green_series(fam, t, z)
            assert _hex_list(lm) == rec["log_mag"][i]
            assert _hex_list(ph) == rec["phase"][i]

    def test_t_array_mixing_zero_and_positive(self):
        rec = GOLDEN["mixed_t"]
        fam = build_family("power", 10, 2.0, 2.0)
        t = np.array([float.fromhex(x) for x in rec["t"]])
        assert np.any(t == 0.0) and np.any(t > 0.0)
        z = complex(*(float.fromhex(x) for x in rec["z"]))
        assert [_hex_pair(v) for v in green_G(fam, t, z)] == rec["G"]

    def test_power_families_on_full_default_grid(self, monkeypatch):
        # a change of summation order moves only a few of these 6,416
        # values, so all of them are pinned, through one digest
        for _ in _tile_layouts(monkeypatch):
            digest = hashlib.sha256()
            for k in (10, 20):
                fam = build_family("power", k, 2.0, 2.0)
                t = default_t_grid(fam)
                for z in default_z_samples(fam, n=4):
                    for v in green_G(fam, t, z):
                        digest.update(f"{v.real.hex()},{v.imag.hex()};".encode())
            assert digest.hexdigest() == GOLDEN["power_full_grid_sha256"]

    def test_log_families_at_scan_orders_on_full_default_grid(self, monkeypatch):
        # the counterexample scan fits log families of these orders; their
        # main sums are wide, and most of each column underflows, so the log
        # magnitude and phase are pinned rather than the complex values
        for _ in _tile_layouts(monkeypatch):
            digest = hashlib.sha256()
            for k in (1026, 7506):
                fam = build_family("log", k, 1.0)
                t = default_t_grid(fam)
                for z in default_z_samples(fam, n=4):
                    lm, ph = _green_series(fam, t, z)
                    for a, b in zip(lm, ph):
                        digest.update(f"{float(a).hex()},{float(b).hex()};".encode())
            assert digest.hexdigest() == GOLDEN["log_scan_sizes_series_sha256"]

    @pytest.mark.parametrize("k", [20, 40])
    def test_shift_suite_node_grid(self, k, monkeypatch):
        # the shift suite's transform probe: on these grids a tenth of the
        # tail's exp arguments underflow and a few percent give subnormals
        rec = GOLDEN[f"shift_power_k{k}"]
        fam = build_family("power", k, 2.0, beta=1.5)
        t = _shift_nodes(k)
        assert hashlib.sha256(",".join(_hex_list(t)).encode()).hexdigest() \
            == rec["nodes_sha256"]
        zs = default_z_samples(fam, n=40, seed=11)[[0, 10, 20, 30]]
        assert [_hex_pair(z) for z in zs] == rec["z"]
        for _ in _tile_layouts(monkeypatch):
            batch = hashlib.sha256()
            for row in green_G(fam, t, zs):
                for v in row:
                    batch.update(f"{v.real.hex()},{v.imag.hex()};".encode())
            single = hashlib.sha256()
            series = hashlib.sha256()
            for z in zs:
                for v in green_G(fam, t, z):
                    single.update(f"{v.real.hex()},{v.imag.hex()};".encode())
                for a, b in zip(*_green_series(fam, t, z)):
                    series.update(f"{float(a).hex()},{float(b).hex()};".encode())
            assert batch.hexdigest() == rec["G_sha256"]
            assert single.hexdigest() == rec["G_sha256"]
            assert series.hexdigest() == rec["series_sha256"]

    def test_contour_node_batch(self):
        # 32 right-arc and 32 boundary-curve nodes, as one contour panel
        # asks for them: fhat = G(0, .) and the right-arc tail at t = 0.5
        rec = GOLDEN["contour_batch_power_k10"]
        fam = build_family("power", 10, 2.0, beta=2.0)
        xs, _ = np.polynomial.legendre.leggauss(32)
        radius = 6.0
        s = radius * xs
        curve = -(1.0 - 1e-6) / np.asarray(fam.matching_rate()(np.abs(s)), dtype=float) + 1j * s
        zs = np.concatenate([radius * np.exp(1j * (0.5 * math.pi) * xs), curve])
        assert [_hex_pair(z) for z in zs] == rec["z"]
        t = float.fromhex(rec["t"])
        assert [_hex_pair(v) for v in green_G(fam, 0.0, zs)] == rec["G_t0"]
        assert [_hex_pair(v) for v in green_G(fam, t, zs)] == rec["G_t"]


def _shift_nodes(k):
    """The Gauss-Legendre nodes of shift_semigroup_suite at order k."""
    xs, _ = np.polynomial.legendre.leggauss(8)
    t_max = 3.0 * k + 80.0
    seams = [0.0, 0.5 * k, float(k), 2.0 * k, t_max]
    edges = [np.array([0.0])]
    for lo, hi in zip(seams[:-1], seams[1:]):
        cnt = max(40, int(math.ceil((hi - lo) / (math.sqrt(k) / 6.0))))
        edges.append(np.linspace(lo, hi, cnt + 1)[1:])
    edges = np.concatenate(edges)
    return np.concatenate([0.5 * (hi - lo) * (xs + 1.0) + lo
                           for lo, hi in zip(edges[:-1], edges[1:])])


def _tile_case(name):
    """(family, t, z) of one tile-seam case: a family on its default grid,
    or power k = 10 at some edge of t or z."""
    variant, _, k = name.partition("-")
    if k.isdigit():
        fam = _ln_family(variant, int(k))
        zs = default_z_samples(fam, n=4)
        return fam, default_t_grid(fam), zs if fam.k < 1000 else zs[[0, 3]]
    fam = _ln_family("power", 10)
    zs = np.concatenate([default_z_samples(fam, n=3), [0j]])
    if name == "empty-z":
        return fam, default_t_grid(fam, n=9), zs[:0]
    t = {"one-t": [7.5], "zero-t": [0.0, 0.0, 0.0], "empty-t": [],
         "mixed-t": [0.0, 0.0, 1.5, 0.0, 3.0, 9.0, 0.0]}[name]
    return fam, np.array(t, dtype=float), zs


class TestGreenTiles:
    """G's series walks its (rows x t) matrices in column tiles; where the
    seams fall must not move a bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 400, 401])
    @pytest.mark.parametrize("min_columns", [2, 3, 7])
    def test_tiles_cover_the_columns(self, monkeypatch, n, min_columns):
        monkeypatch.setattr(atoms, "TILE_POINTS", 1)
        monkeypatch.setattr(atoms, "TILE_MIN_COLUMNS", min_columns)
        tiles = atoms._column_tiles(n, 10)
        assert [i for sl in tiles for i in range(sl.start, sl.stop)] == list(range(n))
        widths = [sl.stop - sl.start for sl in tiles]
        # only a lone t gives a 1-column tile: a 1-column remainder joins
        # the tile before it
        assert all(w >= 2 for w in widths) or widths == [1]
        assert all(w == min_columns for w in widths[:-1])

    @pytest.mark.parametrize("case", ["power-10", "power-20", "log-2502", "log-7506", "one-t",
                                      "zero-t", "mixed-t", "empty-t", "empty-z"])
    def test_values_do_not_depend_on_the_tiles(self, monkeypatch, case):
        # 2-column tiles; 3 and 7 columns leave a 1-column remainder on the
        # 400-point default grid
        fam, t, zs = _tile_case(case)

        def values():
            lm, ph = _green_series(fam, t, zs)
            return (_hex_list(np.ravel(lm)), _hex_list(np.ravel(ph)),
                    [_hex_pair(v) for v in np.ravel(green_G(fam, t, zs))])

        want = values()
        assert len(want[2]) == zs.size * t.size
        monkeypatch.setattr(atoms, "TILE_POINTS", 1)
        for min_columns in (2, 3, 7):
            monkeypatch.setattr(atoms, "TILE_MIN_COLUMNS", min_columns)
            assert values() == want, min_columns

    def test_peak_memory_does_not_grow_with_t(self):
        # the shift suite's probe shape, 40 z: no tile and no (z x t) block
        # grows with t, so four times the points keep the peak within 20%,
        # past the output itself
        fam = build_family("power", 20, 2.0, beta=1.5)
        zs = default_z_samples(fam, n=40, seed=11)
        t_max = 3.0 * fam.k + 80.0

        def peak(n):
            t = np.linspace(0.0, t_max, n)
            green_G(fam, t[:4], zs[:2])
            tracemalloc.start()
            try:
                out = green_G(fam, t, zs)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        at_2040 = peak(2040)
        assert peak(8160) <= 1.2 * at_2040
        # the combine of the main sum and the tail reuses the tile buffers
        assert at_2040 <= 2.2e6


class TestGreenZBatch:
    """green_G over an array of z: row i is the call with z[i] alone."""

    @pytest.mark.parametrize("variant,k", [("power", 10), ("power", 40), ("log", 50)])
    @pytest.mark.parametrize("grid", ["zero", "one-t", "full"])
    def test_rows_equal_single_z_calls(self, variant, k, grid):
        fam = _ln_family(variant, k)
        t = {"zero": 0.0, "one-t": float(k), "full": default_t_grid(fam)}[grid]
        zs = np.concatenate([default_z_samples(fam, n=6),
                             [0j, complex(0.3, -2.0), fam.base + 1e-7j]])
        batch = green_G(fam, t, zs)
        assert batch.shape == zs.shape + np.shape(t)
        for z, row in zip(zs, batch):
            single = np.atleast_1d(green_G(fam, t, z))
            assert [_hex_pair(v) for v in np.atleast_1d(row)] == [_hex_pair(v) for v in single]

    def test_series_rows_equal_single_z_calls(self):
        fam = build_family("log", 2502, 1.0)
        t = default_t_grid(fam)[::10]
        zs = default_z_samples(fam, n=4)
        lm, ph = _green_series(fam, t, zs)
        for i, z in enumerate(zs):
            one_lm, one_ph = _green_series(fam, t, z)
            assert _hex_list(lm[i]) == _hex_list(one_lm)
            assert _hex_list(ph[i]) == _hex_list(one_ph)

    def test_oracle_rows_equal_single_z_calls(self):
        fam = build_family("power", 10, 2.0, 2.0)
        t = default_t_grid(fam, n=40)
        zs = default_z_samples(fam, n=3)
        batch = green_G(fam, t, zs, backend="oracle")
        for z, row in zip(zs, batch):
            assert [_hex_pair(v) for v in row] \
                == [_hex_pair(v) for v in green_G(fam, t, z, backend="oracle")]
        assert green_G(fam, t, zs[:0], backend="oracle").shape == (0, t.size)

    def test_bad_z_in_a_batch_is_refused(self):
        fam = build_family("power", 10, 2.0, 2.0)
        zs = np.array([default_z_samples(fam, n=1)[0], fam.base])
        with pytest.raises(ValueError, match="base point"):
            green_G(fam, 1.0, zs)

    def test_batch_of_more_z_than_the_tail_has_rows(self, monkeypatch):
        # 150 z outnumber the tail's rows, so the z count sizes the tiles
        fam = build_family("power", 10, 2.0, 2.0)
        t = default_t_grid(fam)
        zs = default_z_samples(fam, n=150)
        assert zs.size > atoms._tail_plan(fam, t).nn.shape[0]
        singles = [[_hex_pair(v) for v in green_G(fam, t, z)] for z in zs]
        for layout in _tile_layouts(monkeypatch):
            batch = green_G(fam, t, zs)
            assert [[_hex_pair(v) for v in row] for row in batch] == singles, layout


class TestOverflowGuards:
    def test_green_G_refuses_a_value_past_float_range(self):
        # near the atoms of a k = 200 family G(0, z) is about e^1534: the
        # series keeps it in log space, the complex value cannot hold it
        fam = build_family("power", 200, 2.0, 2.0)
        z = fam.base + 0.5 / fam.circle_scale
        lm, ph = _green_series(fam, np.array([0.0]), z)
        assert lm[0] == pytest.approx(1534.42, abs=0.01)
        assert np.isfinite(ph[0])
        with pytest.raises(OverflowError, match="exceeds float range"):
            green_G(fam, 0.0, z)

    @pytest.mark.parametrize("convert", [to_complex, _to_complex_array])
    def test_both_converters_share_the_709_threshold(self, convert):
        # one rule for L and N (to_complex) and for G (_to_complex_array)
        for lm in (705.0, 709.0):
            value = convert(np.array([lm]), np.array([0.5]))
            assert abs(value[0]) == pytest.approx(math.exp(lm), rel=1e-15)
        with pytest.raises(OverflowError, match="exceeds float"):
            convert(np.array([709.5]), np.array([0.0]))

    def test_to_complex_refuses_a_log_magnitude_above_709(self):
        assert np.isfinite(to_complex(709.0, 0.5))
        with pytest.raises(OverflowError, match="log magnitude 709.5 exceeds"):
            to_complex(709.5, 0.0)
        with pytest.raises(OverflowError, match="log magnitude 710 exceeds"):
            to_complex(np.array([1.0, 710.0]), np.zeros(2))


# ----------------------------------------------------------------------
# L and N series: exact agreement with recorded values
# ----------------------------------------------------------------------

# per family and quantity, a sha256 over the float.hex of every value plus
# every 20th value in full, recorded with the scalar log-space arithmetic
# that L and N used before they took array t; each bit must be reproduced
LN_GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("ln_golden.json")).read_text())
LN_FAMILIES = [("power", 10), ("power", 20), ("power", 40), ("log", 20)]


def _ln_family(variant, k):
    if variant == "power":
        return build_family("power", k, 2.0, 2.0)
    return build_family("log", k, 1.0)


def _ln_points(fam):
    # the default grid plus 200 draws on [0, 3k + 80], seeded by k
    draws = np.random.default_rng(fam.k).uniform(0.0, 3.0 * fam.k + 80.0, 200)
    return np.concatenate([default_t_grid(fam), draws])


class TestLNGolden:
    @pytest.mark.parametrize("variant,k", LN_FAMILIES)
    def test_grid_and_draws_match_recorded_bits(self, variant, k):
        rec = LN_GOLDEN[f"{variant}_k{k}"]
        fam = _ln_family(variant, k)
        t = _ln_points(fam)
        assert t.size == rec["n"]
        values = {"t": _hex_list(t)}
        for name, fn in (("L_log", atoms.laplace_L_log), ("N_log", atoms.primitive_N_log)):
            lm, ph = fn(fam, t)
            assert lm.shape == ph.shape == t.shape
            values[name] = [f"{a.hex()},{b.hex()}" for a, b in zip(lm.tolist(), ph.tolist())]
        for name, fn in (("L", laplace_L), ("N", primitive_N)):
            values[name] = [f"{v.real.hex()},{v.imag.hex()}" for v in fn(fam, t)]
        for name, strings in values.items():
            assert strings[::20] == rec[name]["every_20th"], name
            digest = hashlib.sha256(";".join(strings).encode()).hexdigest()
            assert digest == rec[name]["sha256"], name

    def test_scalar_t_gives_the_array_entry(self):
        fam = _ln_family("power", 20)
        t = _ln_points(fam)[::37]
        for fn, conv in ((atoms.laplace_L_log, laplace_L), (atoms.primitive_N_log, primitive_N)):
            lm, ph = fn(fam, t)
            values = conv(fam, t)
            for i, ti in enumerate(t.tolist()):
                one_lm, one_ph = fn(fam, ti)
                assert one_lm.shape == one_ph.shape == ()
                assert (float(one_lm).hex(), float(one_ph).hex()) == (lm[i].hex(), ph[i].hex())
                one = conv(fam, ti)
                assert type(one) is complex
                assert _hex_pair(one) == _hex_pair(values[i])


# ----------------------------------------------------------------------
# G series: the main sum, one (k-1) x t matrix summed in row order
# ----------------------------------------------------------------------

class TestMainBand:
    @pytest.mark.parametrize("ph_x", [math.pi - 0.01, 2.0, 0.5])
    def test_sums_equal_the_full_matrix_bit_for_bit(self, ph_x):
        # near ph_x = pi the terms alternate in sign and cancel, so any
        # change of summation order shows in the last bits
        k = 2502
        jj = np.arange(k - 1, dtype=float)
        lf = _log_factorials(k - 1)[:, None]
        rng = np.random.default_rng(5)
        narrow_and_wide = np.log(rng.uniform([1.0, 300.0], [50.0, 2400.0], (8, 2)))
        for log_a in [*narrow_and_wide, np.log(rng.uniform(1e-3, 3e3, 400)), np.log([40.0])]:
            # the full-matrix reference: every term against its column's
            # largest, summed by np.sum
            full = jj[:, None] * log_a - lf
            pivot = np.max(full, axis=0)
            scale = np.exp(full - pivot)
            re = np.sum(np.cos(jj * ph_x)[:, None] * scale, axis=0)
            im = np.sum(np.sin(jj * ph_x)[:, None] * scale, axis=0)
            want = pivot + np.log(np.hypot(re, im)), np.arctan2(im, re)
            shape = (k - 1, log_a.size)
            lm = _main_rows(log_a, k, np.empty(shape))
            got = log_from_sums(*_row_sums(lm, _phase_columns(jj * ph_x), np.empty(shape),
                                           np.empty(shape, dtype=bool)))
            assert _hex_list(got[0]) == _hex_list(want[0])
            assert _hex_list(got[1]) == _hex_list(want[1])

    def test_columns_do_not_couple(self):
        # a column's value must not depend on which other t share its call
        fam = build_family("log", 2502, 1.0)
        t = default_t_grid(fam)
        rng = np.random.default_rng(3)
        for z in default_z_samples(fam, n=4):
            full = green_G(fam, t, z)
            full_lm, full_ph = _green_series(fam, t, z)
            for _ in range(6):
                i, j = rng.choice(t.size, size=2, replace=False)
                pair = t[[i, j]]
                assert _hex_pair(green_G(fam, pair, z)[0]) == _hex_pair(full[i])
                lm, ph = _green_series(fam, pair, z)
                assert _hex_list([lm[0], ph[0]]) == _hex_list([full_lm[i], full_ph[i]])


# ----------------------------------------------------------------------
# oracle route: exact agreement with recorded values, and its work
# ----------------------------------------------------------------------

# float.hex of oracle outputs and roots_identity values, recorded before the
# oracle read its roots and atom weights from per-precision tables; the
# tables must reproduce each bit.  power_k7 and log_k10 were recorded from
# the per-atom sums, before L, N and G shared one exponential per conjugate
# pair of roots.  L and N at t = 0 are exact zeros, so their entries are
# working-precision noise; they were re-recorded when the sums moved to
# fixed point
ORACLE_GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("oracle_golden.json")).read_text())


def _roots_sweep(seed):
    # drawn like the benchmark's roots sweep: every order k = 1..64 once,
    # a stride j in {1, k/2, k}, radius 0.5 or 2 and a random angle
    rng = np.random.default_rng(seed)
    calls = []
    for k in range(1, 65):
        j = (1, max(1, round(k / 2)), k)[int(rng.integers(3))]
        r = 0.5 if rng.integers(2) == 0 else 2.0
        calls.append((k, j, r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
    return calls


def _per_atom_sums(fam, t, z):
    """L, N and G at t by the defining sums, one exponential e^(t zeta_s)
    per atom, at the oracle's working precision."""
    mp = mpmath
    with mp.workdps(atoms._oracle_dps(fam, t)):
        k = fam.k
        a = mp.mpf(fam.circle_scale)
        w = mp.mpc(fam.base.real, fam.base.imag)
        tau = a ** (k - 1) / mp.sqrt(k)
        lsum = nsum = gsum = mp.mpc(0)
        for s in range(1, k + 1):
            q = mp.expjpi(mp.mpf(2 * s) / k)
            zeta = w + q / a
            term = tau * q * (1 + q / (a * w)) * mp.exp(mp.mpf(t) * zeta)
            lsum += term
            nsum += term / zeta
            gsum += term / (mp.mpc(z) - zeta)
        return complex(lsum), complex(nsum), complex(gsum)


_GOLDEN_FAMILIES = pytest.mark.parametrize("key,variant,k,alpha", [
    pytest.param("power_k10", "power", 10, 2.0, id="10"),
    pytest.param("power_k12", "power", 12, 2.0, id="12"),
    # odd k: the root q^(k/2) = -1 is absent and every root has a partner
    pytest.param("power_k7", "power", 7, 2.0, id="7"),
    pytest.param("log_k10", "log", 10, 1.0, id="log-10"),
])


class TestOracleGolden:
    @_GOLDEN_FAMILIES
    def test_power_family_on_short_grid(self, key, variant, k, alpha):
        rec = ORACLE_GOLDEN[key]
        fam = build_family(variant, k, alpha, 2.0 if variant == "power" else None)
        t = default_t_grid(fam, n=60)
        assert _hex_list(t) == rec["t"]
        zs = default_z_samples(fam, n=4)[[0, 3]]
        assert [_hex_pair(z) for z in zs] == rec["z"]
        assert [_hex_pair(v) for v in laplace_L(fam, t, backend="oracle")] == rec["L"]
        assert [_hex_pair(v) for v in primitive_N(fam, t, backend="oracle")] == rec["N"]
        for i, z in enumerate(zs):
            assert [_hex_pair(v) for v in green_G(fam, t, z, backend="oracle")] \
                == rec["G"][i]

    @_GOLDEN_FAMILIES
    def test_shared_point_tables_do_not_depend_on_call_order(self, key, variant, k,
                                                              alpha):
        # G first builds each point's table that N and L then read; a second
        # round reads them all from the warm cache
        rec = ORACLE_GOLDEN[key]
        fam = build_family(variant, k, alpha, 2.0 if variant == "power" else None)
        t = default_t_grid(fam, n=60)
        zs = default_z_samples(fam, n=4)[[0, 3]]
        atoms._oracle_point.cache_clear()
        for _ in range(2):
            for i in (1, 0):
                assert [_hex_pair(v) for v in green_G(fam, t, zs[i], backend="oracle")] \
                    == rec["G"][i]
            assert [_hex_pair(v) for v in primitive_N(fam, t, backend="oracle")] == rec["N"]
            assert [_hex_pair(v) for v in laplace_L(fam, t, backend="oracle")] == rec["L"]
        assert atoms._oracle_point.cache_info().misses == t.size

    @pytest.mark.parametrize("variant,k,alpha", [
        *(pytest.param("power", k, 2.0, id=str(k)) for k in (4, 6, 8, 20, 30)),
        # odd k: one complex exponential per conjugate pair, no reflection
        *(pytest.param("power", k, 2.0, id=str(k)) for k in (5, 7, 15, 29)),
        pytest.param("log", 10, 1.0, id="log-10"),
    ])
    def test_equals_per_atom_sums(self, variant, k, alpha):
        # the shared and reflected exponentials round to the doubles of the
        # plain sums over atoms; at t = 0 L and N cancel to working-precision
        # noise, so there both routes are held to the cancellation level
        fam = build_family(variant, k, alpha, 2.0 if variant == "power" else None)
        t = default_t_grid(fam, n=60)
        z = complex(default_z_samples(fam, n=4)[0])
        got = [laplace_L(fam, t, backend="oracle"), primitive_N(fam, t, backend="oracle"),
               green_G(fam, t, z, backend="oracle")]
        want = np.array([_per_atom_sums(fam, float(ti), z) for ti in t]).T
        for name, g, r in zip("LNG", got, want):
            if name != "G":
                assert t[0] == 0.0
                assert max(abs(g[0]), abs(r[0])) <= CANCEL_TOL, name
                g, r = g[1:], r[1:]
            assert [_hex_pair(v) for v in g] == [_hex_pair(v) for v in r], name

    def test_roots_identity_sweep(self):
        rec = ORACLE_GOLDEN["roots"]
        calls = _roots_sweep(rec["seed"])
        assert [[k, j, _hex_pair(z)] for k, j, z in calls] == rec["calls"]
        assert [[_hex_pair(v) for v in roots_identity(k, j, z)]
                for k, j, z in calls] == rec["values"]


class TestOracleWork:
    @pytest.fixture
    def expjpi_calls(self, monkeypatch):
        for cache in (atoms._unit_roots, atoms._oracle_atoms, atoms._oracle_point):
            cache.cache_clear()
        calls = []
        expjpi = mpmath.expjpi

        def counted(x):
            calls.append(x)
            return expjpi(x)

        monkeypatch.setattr(mpmath, "expjpi", counted)
        return calls

    def test_roots_built_once_per_precision_on_a_grid(self, expjpi_calls):
        fam = build_family("power", 12, 2.0, 2.0)
        t = default_t_grid(fam, n=60)
        laplace_L(fam, t, backend="oracle")
        distinct_dps = {atoms._oracle_dps(fam, float(ti)) for ti in t}
        assert len(distinct_dps) < t.size
        assert len(expjpi_calls) == fam.k * len(distinct_dps)

    def test_roots_built_once_per_radius(self, expjpi_calls):
        for theta in np.linspace(0.1, 6.0, 50):
            roots_identity(16, 5, 2.0 * cmath.exp(1j * theta))
        assert len(expjpi_calls) == 16

    @pytest.mark.parametrize("k", [4, 6, 7, 8, 10, 12])
    def test_one_exponential_per_conjugate_root_pair(self, monkeypatch, k):
        # odd k: e^(t q^s/A) for s <= k/2, e^(t/A) for q^k = 1, and e^(tw).
        # Even k: e^(t Re q^s/A) and cis(t Im q^s/A) for s <= k/4, which also
        # give the reflected roots q^(k/2-s) = -conj(q^s) (k = 4 and 8 pair
        # s = k/4 with itself, k = 4 and 6 have k/4 = 1), then e^(t/A), whose
        # inverse serves q^(k/2) = -1, and e^(tw).  L builds them for the
        # point; N, G and G over an array of z then read the same table
        fam = build_family("power", k, 2.0, 2.0)
        z = complex(default_z_samples(fam, n=1)[0])
        zs = default_z_samples(fam, n=4)
        calls = {"exp": 0, "cos_sin": 0}

        def counted(name):
            real = getattr(mpmath, name)

            def call(x):
                calls[name] += 1
                return real(x)

            return call

        for name in calls:
            monkeypatch.setattr(mpmath, name, counted(name))
        if k % 2:
            expected = {"exp": k // 2 + 2, "cos_sin": 0}
        else:
            expected = {"exp": k // 4 + 2, "cos_sin": k // 4}
        atoms._oracle_point.cache_clear()
        laplace_L(fam, 3.0, backend="oracle")
        assert calls == expected
        for f, args in ((primitive_N, ()), (green_G, (z,)), (green_G, (zs,))):
            calls.update(exp=0, cos_sin=0)
            f(fam, 3.0, *args, backend="oracle")
            assert calls == {"exp": 0, "cos_sin": 0}, (f.__name__, args)

    def test_point_tables_stay_within_the_cache_bound(self):
        fam = build_family("power", 4, 2.0, 2.0)
        t = np.linspace(0.0, 50.0, atoms._TABLE_CACHE + 88)
        atoms._oracle_point.cache_clear()
        laplace_L(fam, t, backend="oracle")
        info = atoms._oracle_point.cache_info()
        assert info.misses == t.size
        assert info.currsize <= atoms._TABLE_CACHE

    def test_green_weights_do_not_leak_across_calls(self, monkeypatch):
        fam = build_family("power", 10, 2.0, 2.0)
        t = default_t_grid(fam, n=20)
        z1, z2 = default_z_samples(fam, n=4)[[0, 3]]
        first = [_hex_pair(v) for v in green_G(fam, t, z1, backend="oracle")]
        green_G(fam, t, z2, backend="oracle")
        assert [_hex_pair(v) for v in green_G(fam, t, z1, backend="oracle")] == first
        # after calls at 50 z, the only fixed-point tables still alive are
        # the per-precision L and N tables of the shared cache
        atoms._oracle_atoms.cache_clear()
        built = []
        fixed_table = atoms._fixed_table

        def recorded(values, prec):
            table = fixed_table(values, prec)
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(atoms, "_fixed_table", recorded)
        zs = default_z_samples(fam, n=50)
        assert np.unique(zs).size == 50
        for z in zs:
            green_G(fam, t, z, backend="oracle")
        gc.collect()
        dps = {atoms._oracle_dps(fam, float(ti)) for ti in t}
        cached = {id(table) for d in dps
                  for table in (atoms._oracle_atoms(fam, d).qs_fixed,
                                atoms._oracle_atoms(fam, d).weights_fixed)}
        assert len(built) == (2 + zs.size) * len(dps)
        assert {id(ref()) for ref in built if ref() is not None} == cached


# ----------------------------------------------------------------------
# roots_identity
# ----------------------------------------------------------------------

class TestRootsIdentity:
    def test_single_term_case(self):
        lhs, rhs = roots_identity(1, 1, 3.0 + 0.0j)
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.5, abs=1e-15)

    def test_small_case_closed_form(self):
        _, rhs = roots_identity(4, 2, 2.0 + 0.0j)
        assert rhs == pytest.approx(8.0 / 15.0, rel=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            roots_identity(6, 2, 1.0 + 0.0j)

    @seed(5)
    @given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_circle_samples_match(self, theta):
        z = 2.0 * cmath.exp(1j * theta)
        lhs, rhs = roots_identity(16, 5, z)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) <= ROOTS_TOL


# ----------------------------------------------------------------------
# taylor_remainder_check
# ----------------------------------------------------------------------

class TestTaylorRemainder:
    def test_origin_is_exact(self):
        remainder, bound = taylor_remainder_check(3, 0.0 + 0.0j)
        assert remainder == 0.0
        assert bound == 0.0

    def test_unit_point_cubic(self):
        remainder, bound = taylor_remainder_check(3, 1.0 + 0.0j)
        assert remainder == pytest.approx(math.e - 8.0 / 3.0, rel=1e-12)
        assert bound == pytest.approx(2.0 / 24.0, rel=1e-15)
        assert remainder <= bound

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            taylor_remainder_check(2, 1.5 + 0.0j)

    @seed(6)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=1, max_value=10),
    )
    def test_random_disc_points(self, re, im, n):
        z = _unit_disc_z(re, im)
        remainder, bound = taylor_remainder_check(n, z)
        assert remainder <= bound + 1e-18


# ----------------------------------------------------------------------
# stirling_bounds_check
# ----------------------------------------------------------------------

class TestStirlingBounds:
    def test_peak_value_is_one(self):
        k = 12
        t = float(k)
        peak = math.exp(k - t) * (t / k) ** k * max(math.sqrt(t / k), 1.0)
        assert peak == 1.0

    @pytest.mark.parametrize("k", [3, 10, 50])
    def test_single_constant_pair_per_k(self, k):
        # default grid is logarithmic on [0, 10k] and pins t = k exactly
        rep = stirling_bounds_check(k)
        assert rep.passed
        assert rep.constants["C"] > 0
        assert rep.constants["rho"] > 0
        assert rep.constants["c"] > 0


# ----------------------------------------------------------------------
# default_z_samples
# ----------------------------------------------------------------------

class TestZSamples:
    @pytest.mark.parametrize("variant,alpha,beta", [("power", 2.0, 2.0),
                                                    ("log", 1.0, None)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_samples_than_bands(self, variant, alpha, beta, n):
        fam = build_family(variant, 20, alpha, beta)
        zs = default_z_samples(fam, n)
        assert zs.shape == (n,)
        M = fam.matching_rate()
        assert all(weights.omega_m_contains(M, z) for z in zs)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            default_z_samples(build_family("power", 10, 2.0, 2.0), 0)


# ----------------------------------------------------------------------
# verify_prop52
# ----------------------------------------------------------------------

class TestInequalityFits:
    def test_power_variant_all_four_pass(self):
        fam = build_family("power", 15, 2.0, 2.0)
        reps = verify_prop52(fam, *prop52_inputs(fam))
        assert [r.name for r in reps] == ["X3", "XQ4", "X5", "X6"]
        assert all(r.passed for r in reps)
        assert all(r.constants.get("rho", 1.0) > 0 for r in reps)

    def test_power_variant_window_inside_grid(self):
        fam = build_family("power", 20, 2.0, 2.0)
        grid = default_t_grid(fam)
        k = fam.k
        window = grid[(grid - k) ** 2 < k]
        assert window.size >= 10  # the near-peak window must be sampled

    def test_log_variant_far_field_envelope(self):
        fam = build_family("log", 30, 1.0)
        reps = {r.name: r for r in verify_prop52(fam, *prop52_inputs(fam))}
        far = reps["Y4"]
        assert far.passed
        assert far.constants["rho"] > 0

    def test_fit_inputs_match_oracle_on_grid(self):
        # the series values verify_prop52 fits, against the mpmath direct
        # sums at every grid point: a relative gap, except where L and N
        # cancel to 0 at t = 0 and the gap is absolute
        fam = build_family("power", 12, 2.0, 2.0)
        tg = default_t_grid(fam, n=60)
        zs = default_z_samples(fam, n=10)
        cases = [(f(fam, tg, backend="oracle"), f(fam, tg), tg == 0)
                 for f in (laplace_L, primitive_N)]
        cases += [(green_G(fam, tg, z, backend="oracle"), green_G(fam, tg, z),
                   np.zeros(tg.size, dtype=bool)) for z in zs[::4]]
        for oracle, series, cancels in cases:
            gap = np.abs(oracle - series)
            scale = np.maximum(np.abs(oracle), np.abs(series))
            limit = np.where(cancels, CANCEL_TOL, BACKEND_TOL * scale)
            assert np.all(gap <= limit), np.max(gap / limit)
