"""LTE downlink link budget and SINR evaluation.

Macro-cell path loss (128.1 + 37.6 log10 R_km at 2 GHz), the parabolic
3-sector antenna pattern, thermal noise from bandwidth and noise figure,
max-power association and a Shannon-with-cap throughput map.
`sector_rx_dbm` is the one array form of the received-power budget; the
link table and `attach_and_evaluate` both call it. Seeded shadowing applies
to the link table only; `link_budget` and `sinr_db` are scalar references.

SINR has two array routes with one arithmetic tail. `sinr_from_rx` takes
dBm and also returns the serving sector. `LinkGainTable.sinr_for`, which
the search scores with, gathers from a site-major linear-power copy of the
table and takes the row max as the signal. It gives the same bytes: the
copy comes from the same `db_to_linear` ufunc, and that ufunc is monotone
(the tests sweep it densely), so the max linear value is the linear value
of the max dBm.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config_json import read_config_fields, require_finite
from .geometry import los_mask

SECTOR_AZIMUTHS_DEG = (0.0, 120.0, 240.0)

# Shannon mapping limits: below the floor a user is in outage, above the
# cap extra SINR buys no spectral efficiency.
SINR_FLOOR_DB = -10.0
SINR_CAP_DB = 22.0

_PATHLOSS_CLAMP_M = 10.0


class RadioError(Exception):
    pass


class NonPositiveDistance(RadioError):
    pass


class NoSectors(RadioError):
    pass


@dataclass
class RadioParams:
    carrier_ghz: float = 2.0
    hpbw_deg: float = 65.0
    front_back_db: float = 20.0
    nlos_penalty_db: float = 20.0
    noise_figure_db: float = 9.0
    bandwidth_mhz: float = 10.0
    tx_power_dbm: float = 43.0
    min_coupling_loss_db: float = 70.0
    antenna_gain_dbi: float = 15.0
    shadowing_sigma_db: float = 0.0
    shadowing_seed: int = 0

    def __post_init__(self):
        require_finite(self, RadioError)
        for name in ("carrier_ghz", "hpbw_deg", "front_back_db", "noise_figure_db",
                     "bandwidth_mhz", "min_coupling_loss_db"):
            if getattr(self, name) <= 0:
                raise RadioError(f"{name} must be positive")
        if self.nlos_penalty_db < 0 or self.shadowing_sigma_db < 0:
            raise RadioError("penalties must be non-negative")
        if self.shadowing_seed < 0:
            raise RadioError(f"shadowing_seed must be >= 0, got {self.shadowing_seed}")

    @classmethod
    def from_json(cls, path) -> "RadioParams":
        return cls(**read_config_fields(path, cls, RadioError))

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


@dataclass
class BsSector:
    position: np.ndarray  # (3,) meters
    azimuth_deg: float  # 0 = +x axis, counterclockwise
    tx_power_dbm: float
    antenna_gain_dbi: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.azimuth_deg = float(self.azimuth_deg) % 360.0


@dataclass
class LinkBudget:
    pathloss_db: float
    antenna_gain_db: float  # peak gain minus pattern attenuation
    los: bool
    rx_power_dbm: float


def build_sectors(position, params: RadioParams) -> list[BsSector]:
    """The standard three-sector head on one mast position."""
    return [
        BsSector(position, az, params.tx_power_dbm, params.antenna_gain_dbi)
        for az in SECTOR_AZIMUTHS_DEG
    ]


def sectors_for_sites(positions, params: RadioParams) -> list[BsSector]:
    out = []
    for p in positions:
        out.extend(build_sectors(p, params))
    return out


def pathloss_db(distance_m, params: RadioParams):
    """3GPP macro path loss; distances under 10 m clamp to 10 m.

    At 2 GHz this is 128.1 + 37.6 log10(R_km); other carriers shift the
    intercept by 21 log10(f/2).
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("distance must be > 0 m")
    d = np.maximum(d, _PATHLOSS_CLAMP_M)
    pl = 128.1 + 37.6 * np.log10(d / 1000.0) + 21.0 * np.log10(params.carrier_ghz / 2.0)
    return float(pl) if np.isscalar(distance_m) else pl


def antenna_attenuation_db(angle_off_boresight_deg, params: RadioParams):
    """Horizontal pattern: min(12 (theta/HPBW)^2, front-to-back ratio)."""
    theta = np.asarray(angle_off_boresight_deg, dtype=float)
    theta = (theta + 180.0) % 360.0 - 180.0
    att = np.minimum(12.0 * (theta / params.hpbw_deg) ** 2, params.front_back_db)
    return float(att) if np.isscalar(angle_off_boresight_deg) else att


def thermal_noise_dbm(params: RadioParams) -> float:
    bw_hz = params.bandwidth_mhz * 1e6
    return -174.0 + 10.0 * math.log10(bw_hz) + params.noise_figure_db


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(lin):
    return 10.0 * np.log10(np.asarray(lin, dtype=float))


def link_budget(user, sector: BsSector, scene, params: RadioParams,
                use_blockages: bool) -> LinkBudget:
    """Full budget for one user-sector pair (the scalar reference path)."""
    from .geometry import Segment3, los_blocked

    upos = np.asarray(user.position, dtype=float)
    spos = sector.position
    delta = upos - spos
    d3d = float(np.linalg.norm(delta))
    pl = pathloss_db(d3d, params)
    bearing = math.degrees(math.atan2(delta[1], delta[0]))
    att = antenna_attenuation_db(bearing - sector.azimuth_deg, params)
    if use_blockages and scene is not None and scene.buildings:
        los = not los_blocked(Segment3(spos, upos), scene.buildings)
    else:
        los = True
    gain = sector.antenna_gain_dbi - att
    rx = sector.tx_power_dbm + gain - pl
    if not los:
        rx -= params.nlos_penalty_db
    rx = min(rx, sector.tx_power_dbm - params.min_coupling_loss_db)
    return LinkBudget(pl, gain, los, rx)


# Sector values per user block of sector_rx_dbm: bounds the per-sector
# gathers and pattern temporaries.
_RX_BLOCK_ELEMS = 1 << 16


def sector_rx_dbm(user_pos: np.ndarray, mast_pos: np.ndarray, sector_mast: np.ndarray,
                  azimuth_deg, tx_power_dbm, antenna_gain_dbi, prisms,
                  params: RadioParams) -> np.ndarray:
    """Received power in dBm, shape [n_users, n_sectors].

    The array form of `link_budget`. Sector k sits on mast `sector_mast[k]`
    and has its own azimuth, tx power and gain (scalars broadcast to every
    sector). Distance, path loss, bearing and LoS are computed once per
    mast row of `mast_pos`, over all users at once; the per-sector half
    (gathers and antenna pattern) fills the result in user blocks of at
    most `_RX_BLOCK_ELEMS` values. Every value is computed elementwise, so
    the blocking does not change a bit.
    """
    delta = user_pos[:, None, :] - mast_pos[None, :, :]
    pl = pathloss_db(np.maximum(np.sqrt((delta ** 2).sum(axis=2)), 1e-12), params)
    bearing = np.degrees(np.arctan2(delta[:, :, 1], delta[:, :, 0]))
    del delta  # the largest per-mast temporary; free it before the LoS mask
    penalty = np.where(los_mask(user_pos, mast_pos, prisms), 0.0, params.nlos_penalty_db)
    cap = tx_power_dbm - params.min_coupling_loss_db
    rx = np.empty((len(user_pos), len(sector_mast)))
    step = max(1, _RX_BLOCK_ELEMS // max(1, len(sector_mast)))
    for start in range(0, len(user_pos), step):
        users = slice(start, start + step)
        # np.take keeps the gathers C-ordered, so later reductions over a
        # row add in sector order (x[:, idx] would come out Fortran-ordered)
        block = (tx_power_dbm + antenna_gain_dbi - np.take(pl[users], sector_mast, axis=1)
                 - np.take(penalty[users], sector_mast, axis=1)
                 - antenna_attenuation_db(
                     np.take(bearing[users], sector_mast, axis=1) - azimuth_deg, params))
        np.minimum(block, cap, out=rx[users])
    return rx


def shadowing_matrix(n_users: int, n_sites: int, params: RadioParams) -> np.ndarray:
    """Per-link log-normal shadowing in dB, identical for a site's sectors."""
    if params.shadowing_sigma_db == 0.0:
        return np.zeros((n_users, n_sites))
    rng = np.random.default_rng(params.shadowing_seed)
    return rng.normal(0.0, params.shadowing_sigma_db, size=(n_users, n_sites))


@dataclass
class LinkGainTable:
    """Precomputed rx power for every user against every mountable site.

    Sites 0..n_candidates-1 are the scene's candidate sites in id order;
    the scene's fixed BS follow. Scoring a configuration is then a site
    gather plus the SINR arithmetic, with no geometry in the loop.

    The first `sinr_for` call derives a site-major linear-power copy
    [n_sites, n_users, 3] of `rx_dbm` and keeps it; `rx_dbm` must not
    change after that.
    """

    rx_dbm: np.ndarray  # [n_users, n_sites, 3]
    priority: np.ndarray  # [n_users] bool
    n_candidates: int
    n_fixed: int
    noise_dbm: float
    _rx_lin: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def columns_for(self, site_ids) -> np.ndarray:
        """Site columns [..., k + n_fixed]: the ids along the last axis, then the fixed BS."""
        ids = np.asarray(site_ids, dtype=int)
        fixed = np.arange(self.n_candidates, self.n_candidates + self.n_fixed)
        return np.concatenate([ids, np.broadcast_to(fixed, ids.shape[:-1] + fixed.shape)],
                              axis=-1)

    def rx_for(self, site_ids) -> np.ndarray:
        """Sector rx in dBm, C-contiguous [..., n_users, 3*(k+n_fixed)].

        `site_ids` is one site set [k] or a batch of equal-size sets
        [..., k]; the batch axes lead the result.
        """
        rx = np.moveaxis(np.take(self.rx_dbm, self.columns_for(site_ids), axis=1), 0, -3)
        return np.ascontiguousarray(rx).reshape(rx.shape[:-2] + (-1,))

    def sinr_for(self, site_ids) -> np.ndarray:
        """SINR in dB [..., n_users]: bytewise `sinr_from_rx(self.rx_for(site_ids))[1]`.

        Whole site blocks of the linear table are gathered, then swapped to
        [..., n_users, k+n_fixed, 3]: the values and order of
        `db_to_linear(self.rx_for(site_ids))`, so the row sums do not move.
        The signal is the row max, which is the serving sector's power
        while `db_to_linear` is monotone.
        """
        if self._rx_lin is None:
            n_users, n_sites, n_heads = self.rx_dbm.shape
            lin = np.empty((n_sites, n_users, n_heads))
            for site, block in enumerate(lin):  # one site at a time keeps temporaries small
                block[:] = db_to_linear(self.rx_dbm[:, site])
            self._rx_lin = lin
        lin = np.take(self._rx_lin, self.columns_for(site_ids), axis=0)
        lin = np.ascontiguousarray(np.swapaxes(lin, -3, -2))
        lin = lin.reshape(lin.shape[:-2] + (-1,))
        return _sinr_db(lin, lin.max(axis=-1), self.noise_dbm)


def build_link_table(scene, params: RadioParams, use_blockages: bool,
                     threads: int = 1) -> LinkGainTable:
    """Rx table over the scene's candidates followed by its fixed BS.

    Every site carries the standard three-sector head. `threads` is
    accepted for call compatibility and ignored: the table is one
    single-threaded array computation.
    """
    user_pos = scene.user_positions()
    site_pos = scene.candidate_positions()
    if scene.fixed_bs:
        site_pos = np.vstack([site_pos, np.array(scene.fixed_bs)])
    n_users, n_sites, n_heads = len(user_pos), len(site_pos), len(SECTOR_AZIMUTHS_DEG)
    prisms = scene.buildings if use_blockages else []
    rx = sector_rx_dbm(user_pos, site_pos, np.repeat(np.arange(n_sites), n_heads),
                       np.tile(SECTOR_AZIMUTHS_DEG, n_sites), params.tx_power_dbm,
                       params.antenna_gain_dbi, prisms, params)
    rx = rx.reshape(n_users, n_sites, n_heads)
    if params.shadowing_sigma_db > 0.0:
        # Optional seeded shadowing lives on the table path only; the
        # scalar link_budget stays the deterministic reference.
        rx = rx + shadowing_matrix(n_users, n_sites, params)[:, :, None]
        np.minimum(rx, params.tx_power_dbm - params.min_coupling_loss_db, out=rx)
    return LinkGainTable(
        rx_dbm=rx,
        priority=scene.priority_mask(),
        n_candidates=len(scene.candidates),
        n_fixed=len(scene.fixed_bs),
        noise_dbm=thermal_noise_dbm(params),
    )


def sinr_from_rx(rx_dbm: np.ndarray, noise_dbm: float):
    """Association and SINR from a per-user sector rx matrix [..., users, sectors].

    Serving sector is the max-power column, first index on ties. Returns
    (serving index per user, SINR in dB per user), each [..., users];
    leading axes are a batch of independent placements.
    """
    if rx_dbm.ndim < 2 or rx_dbm.shape[-1] == 0:
        raise NoSectors("need at least one sector")
    lin = db_to_linear(rx_dbm)
    serving = np.argmax(rx_dbm, axis=-1)
    signal = np.take_along_axis(lin, serving[..., None], axis=-1)[..., 0]
    return serving, _sinr_db(lin, signal, noise_dbm)


def _sinr_db(lin: np.ndarray, signal: np.ndarray, noise_dbm: float) -> np.ndarray:
    """SINR in dB of `signal` against the rest of its row of `lin` [..., sectors] and noise."""
    interference = lin.sum(axis=-1) - signal
    return linear_to_db(signal / (db_to_linear(noise_dbm) + interference))


def attach_and_evaluate(users, sectors: list[BsSector], scene, params: RadioParams,
                        use_blockages: bool):
    """Per-user (serving sector index, SINR dB) under max-power association.

    LoS is resolved once per distinct mast position, not per sector.
    """
    if not sectors:
        raise NoSectors("sector list is empty")
    user_pos = np.array([np.asarray(u.position, dtype=float) for u in users])
    masts, sector_mast = np.unique(np.array([s.position for s in sectors]), axis=0,
                                   return_inverse=True)
    prisms = scene.buildings if (use_blockages and scene is not None) else []
    rx = sector_rx_dbm(user_pos, masts, sector_mast,
                       np.array([s.azimuth_deg for s in sectors]),
                       np.array([s.tx_power_dbm for s in sectors]),
                       np.array([s.antenna_gain_dbi for s in sectors]), prisms, params)
    return sinr_from_rx(rx, thermal_noise_dbm(params))


def sinr_db(user, serving: int, all_sectors: list[BsSector], scene,
            params: RadioParams, use_blockages: bool) -> float:
    """SINR for one user with an imposed serving sector."""
    if not (0 <= serving < len(all_sectors)):
        raise NoSectors(f"serving index {serving} outside sector list")
    budgets = [link_budget(user, s, scene, params, use_blockages) for s in all_sectors]
    lin = db_to_linear(np.array([b.rx_power_dbm for b in budgets]))
    signal = lin[serving]
    interference = lin.sum() - signal
    noise = db_to_linear(thermal_noise_dbm(params))
    return float(linear_to_db(signal / (noise + interference)))


def throughput_mbps(sinr_db_value, n_attached, params: RadioParams):
    """Equal-share Shannon rate with an outage floor and efficiency cap.

    `n_attached` counts the users sharing the serving sector; scalars and
    arrays broadcast against `sinr_db_value`.
    """
    n = np.asarray(n_attached)
    if np.any(n < 1):
        raise RadioError("n_attached must be >= 1")
    s = np.asarray(sinr_db_value, dtype=float)
    capped = db_to_linear(np.minimum(s, SINR_CAP_DB))
    rate = (params.bandwidth_mhz / n) * np.log2(1.0 + capped)
    rate = np.where(s < SINR_FLOOR_DB, 0.0, rate)
    return float(rate) if np.isscalar(sinr_db_value) else rate
