"""Shared fixtures: small hand-built worlds the unit tests can reason about."""

import numpy as np
import pytest

from bsplace.geometry import Segment3
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


def make_segment(a, b):
    return Segment3(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


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
    raster = ClassRaster(width=10, height=10, cell_size=10.0,
                         origin=(0.0, 0.0), classes=classes)
    dsm = Dsm(width=10, height=10, cell_size=10.0, origin=(0.0, 0.0),
              elevation=elev)
    return raster, dsm


@pytest.fixture
def default_scene_config():
    return SceneConfig()


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
