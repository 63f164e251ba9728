"""Shared fixtures: small hand-built worlds the unit tests can reason about."""

import functools

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.lib.introspect import opt_func_info

from bsplace.radio import LinkGainTable, db_to_linear
from bsplace.scene import (
    BuildingPrism,
    CandidateSite,
    ClassRaster,
    Dsm,
    Scene,
    SceneConfig,
    User,
)


def rect_prism(x0, y0, x1, y1, base, top):
    footprint = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    return BuildingPrism(footprint=footprint, base_elev=base, top_elev=top)


def table_from_db(rx_dbm, priority, n_fixed, noise_dbm=-104.0):
    """A LinkGainTable of `rx_dbm` [users, sites, 3], stored as
    `build_link_table` stores it: `db_to_linear` on the site-major dB array."""
    site_major = np.ascontiguousarray(np.moveaxis(rx_dbm, 1, 0))
    return LinkGainTable(rx_mw=db_to_linear(site_major), priority=np.asarray(priority),
                         n_fixed=n_fixed, noise_dbm=noise_dbm)


@pytest.fixture
def box_scene():
    """Flat 200 x 200 m block with one 20 m tall building in the middle.

    Users sit on the ground (z = 1.5), candidates on short masts. The
    building separates user 2 from candidate 0 but not from candidate 1.
    """
    building = rect_prism(90.0, 90.0, 110.0, 110.0, 0.0, 20.0)
    users = [
        User(position=np.array([30.0, 100.0, 1.5]), priority=True),
        User(position=np.array([100.0, 30.0, 1.5]), priority=False),
        User(position=np.array([170.0, 100.0, 1.5]), priority=False),
        User(position=np.array([100.0, 170.0, 1.5]), priority=True),
    ]
    candidates = [
        CandidateSite(id=0, position=np.array([10.0, 100.0, 15.0])),
        CandidateSite(id=1, position=np.array([100.0, 10.0, 15.0])),
        CandidateSite(id=2, position=np.array([190.0, 190.0, 15.0])),
    ]
    return Scene(buildings=[building], users=users,
                 candidates=candidates, fixed_bs=[])


@pytest.fixture
def flat_raster_pair():
    """10 x 10 cell raster/DSM pair with a 2 x 2 building block.

    Cell size 10 m; building occupies cells (4..5, 4..5) counted from the
    south-west corner, 15 m tall on flat ground at elevation 3 m.
    """
    classes = np.zeros((10, 10), dtype=np.int16)
    classes[4:6, 4:6] = 1  # Building
    classes[0, :] = 2      # low vegetation along the south edge
    elev = np.full((10, 10), 3.0)
    elev[4:6, 4:6] = 18.0
    raster = ClassRaster(cell_size=10.0, origin=(0.0, 0.0), classes=classes)
    dsm = Dsm(cell_size=10.0, origin=(0.0, 0.0), elevation=elev)
    return raster, dsm


@pytest.fixture
def default_scene_config():
    return SceneConfig()


# ---------------------------------------------------------------------------
# Pins per numpy dispatch mode: numpy's float64 exp, log10 and power round
# their last bit differently under its AVX-512 and AVX2 kernels, so a digest
# of floats that take them holds in one mode only. Such a pin keeps one
# digest per mode, keyed on the targets these three functions run.

AVX512 = ("X86_V4", "X86_V4", "X86_V4")
AVX2 = ("X86_V3", "baseline(X86_V2)", "baseline(X86_V2)")


@functools.cache
def dispatch_key() -> tuple:
    """The targets of float64 exp, log10 and power that
    `numpy.lib.introspect.opt_func_info` reports current in this process."""
    info = opt_func_info(func_name="^(exp|log10|power)$", signature="float64")
    return tuple(next(iter(info[name].values()))["current"] for name in ("exp", "log10", "power"))


class Digests(dict):
    """One output's digest under each dispatch mode, keyed on dispatch_key()."""

    def __init__(self, avx512, avx2):
        super().__init__({AVX512: avx512, AVX2: avx2})

    def current(self):
        """The digest recorded for this process's mode; a mode with none
        fails, naming its targets."""
        key = dispatch_key()
        if key not in self:
            pytest.fail(f"no digest recorded for float64 exp, log10, power on {key}")
        return self[key]


def digest_id(value):
    """Test id of a Digests parameter, its AVX-512 digest; None (pytest's own
    id) for any other value."""
    return value[AVX512] if isinstance(value, Digests) else None


# ---------------------------------------------------------------------------
# Acceptance reporting: test_acceptance.py records one verdict per criterion
# and this hook prints them as a block at the end of the run.

ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        name, ok, detail = ACCEPTANCE[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {num}. {name}: {detail}")


@st.composite
def pinch_heavy_classes(draw):
    """Rasters up to 40 cells a side made of patterns that meet at pinch
    corners: checkerboard patches, diagonal staircases that touch only at
    corners, and rings around courtyards with a corner cell taken out, so
    the courtyard meets the outside at a pinch corner of the ring."""
    h, w = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    classes = rng.choice(np.array([0, 2, 2, 5], dtype=np.int16), (h, w))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["checker", "stairs", "courtyard", "speckle"]))
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        size = draw(st.integers(2, 20))
        rows, cols = slice(r0, r0 + size), slice(c0, c0 + size)
        if kind == "checker":
            iy, ix = np.indices(classes[rows, cols].shape)
            patch = (iy + ix) % 2 == draw(st.integers(0, 1))
            classes[rows, cols] = np.where(patch, 1, classes[rows, cols])
        elif kind == "stairs":
            step = draw(st.sampled_from([1, -1]))
            for t in range(size):
                if 0 <= r0 + t < h and 0 <= c0 + step * t < w:
                    classes[r0 + t, c0 + step * t] = 1
        elif kind == "courtyard":
            ring = np.zeros((size + 1, size + 1), dtype=bool)
            ring[[0, -1], :] = ring[:, [0, -1]] = True
            corner = draw(st.sampled_from([(0, 0), (0, -1), (-1, 0), (-1, -1)]))
            ring[corner] = False
            view = classes[r0:r0 + size + 1, c0:c0 + size + 1]
            view[ring[:view.shape[0], :view.shape[1]]] = 1
            view[1:-1, 1:-1][view[1:-1, 1:-1] == 1] = 0  # an open courtyard
        else:
            speck = rng.random(classes[rows, cols].shape) < 0.45
            classes[rows, cols] = np.where(speck, 1, classes[rows, cols])
    return classes


# ESRI ASCII grid text for the grid file tests in test_scene.py and test_gridio.py

def grid_text(tokens, body):
    return f"ncols {len(tokens)}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n{body}"


def dsm_body(seed, shape):
    """A save_dsm body: repr of every elevation, one row per line."""
    rng = np.random.default_rng(seed)
    elevation = rng.normal(20.0, 15.0, shape)
    elevation.flat[:6] = [-0.0, 0.0, 9007199254740993.0, 1e-7, 123.5, -3.0]
    return "".join(" ".join(map(repr, row)) + "\n" for row in elevation.tolist())
