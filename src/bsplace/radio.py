"""LTE downlink link budget and SINR evaluation.

Macro-cell path loss (128.1 + 37.6 log10 R_km at 2 GHz), the parabolic
3-sector antenna pattern, thermal noise from bandwidth and noise figure,
max-power association and a Shannon-with-cap throughput map.
`sector_rx_dbm` is the one array form of the received-power budget, over
users x masts x the heads at `SECTOR_AZIMUTHS_DEG`. `build_link_table` and
`attach_and_evaluate` both turn it into a `LinkGainTable` by one constructor,
and every route scores SINR through `LinkGainTable.sinr_for`.

The table is stored once, as site-major linear power made by the
`db_to_linear` ufuncs, which also convert its noise. `sinr_for` takes the
largest power as the signal, so it gives the bytes `sinr_from_rx` gives on
the same dBm: that ufunc is monotone (the tests sweep it densely).
`link_budget`, `sinr_db` and `sinr_from_rx` are scalar references the tests
check the kernels against, and only they call one another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config_json import DataError, read_config_fields, require_finite
from .geometry import los_blocked, los_mask

SECTOR_AZIMUTHS_DEG = (0.0, 120.0, 240.0)

# Shannon mapping limits: below the floor a user is in outage, above the
# cap extra SINR buys no spectral efficiency.
SINR_FLOOR_DB = -10.0
SINR_CAP_DB = 22.0

_PATHLOSS_CLAMP_M = 10.0


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

    def __post_init__(self):
        require_finite(self)
        for name in ("carrier_ghz", "hpbw_deg", "front_back_db", "noise_figure_db",
                     "bandwidth_mhz", "min_coupling_loss_db"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.nlos_penalty_db < 0:
            raise DataError(f"nlos_penalty_db must be >= 0, got {self.nlos_penalty_db}")

    @classmethod
    def from_json(cls, path) -> "RadioParams":
        return cls(**read_config_fields(path, cls))


@dataclass
class BsSector:
    """One sector antenna; it radiates `RadioParams.tx_power_dbm` at peak
    gain `RadioParams.antenna_gain_dbi`."""

    position: np.ndarray  # (3,) meters
    azimuth_deg: float  # 0 = +x axis, counterclockwise

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
    return [BsSector(position, az) for az in SECTOR_AZIMUTHS_DEG]


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
        raise DataError("distance must be > 0 m")
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
    upos = np.asarray(user.position, dtype=float)
    spos = sector.position
    delta = upos - spos
    d3d = float(np.linalg.norm(delta))
    pl = pathloss_db(d3d, params)
    bearing = math.degrees(math.atan2(delta[1], delta[0]))
    att = antenna_attenuation_db(bearing - sector.azimuth_deg, params)
    if use_blockages and scene is not None and scene.buildings:
        los = not los_blocked(spos, upos, scene.buildings)
    else:
        los = True
    gain = params.antenna_gain_dbi - att
    rx = params.tx_power_dbm + gain - pl
    if not los:
        rx -= params.nlos_penalty_db
    rx = min(rx, params.tx_power_dbm - params.min_coupling_loss_db)
    return LinkBudget(pl, gain, los, rx)


# Rx values per mast block of sector_rx_dbm: bounds every per-pair temporary.
_RX_BLOCK_ELEMS = 1 << 16


def sector_rx_dbm(user_pos: np.ndarray, mast_pos: np.ndarray, prisms,
                  params: RadioParams) -> np.ndarray:
    """Received power in dBm, shape [n_users, n_masts, 3]: the array form of
    `link_budget` for the three-sector heads of `sectors_for_sites`.

    The LoS mask is taken once over all pairs. The rest fills the result in
    blocks of masts of at most `_RX_BLOCK_ELEMS` values (or one mast),
    broadcast over the head axis. Every value is computed elementwise, so
    the blocking does not change a bit. The buffer is site-major, as the table.
    """
    n_users, n_masts, n_heads = len(user_pos), len(mast_pos), len(SECTOR_AZIMUTHS_DEG)
    los = los_mask(user_pos, mast_pos, prisms)
    cap = params.tx_power_dbm - params.min_coupling_loss_db
    rx = np.empty((n_masts, n_users, n_heads)).transpose(1, 0, 2)
    step = max(1, _RX_BLOCK_ELEMS // max(1, n_users * n_heads))
    for start in range(0, n_masts, step):
        masts = slice(start, start + step)
        delta = user_pos[:, None, :] - mast_pos[None, masts, :]
        pl = pathloss_db(np.maximum(np.sqrt((delta ** 2).sum(axis=2)), 1e-12), params)
        bearing = np.degrees(np.arctan2(delta[:, :, 1], delta[:, :, 0]))
        del delta  # the largest block temporary; free it before the pattern
        base = (params.tx_power_dbm + params.antenna_gain_dbi - pl
                - np.where(los[:, masts], 0.0, params.nlos_penalty_db))
        np.minimum(base[:, :, None]
                   - antenna_attenuation_db(bearing[:, :, None] - SECTOR_AZIMUTHS_DEG, params),
                   cap, out=rx[:, masts])
    return rx


@dataclass
class LinkGainTable:
    """Precomputed rx power for every user against every mountable site.

    Sites 0..n_candidates-1 are the scene's candidate sites in id order;
    the scene's fixed BS follow. Scoring a configuration is then a site
    gather plus the SINR arithmetic, with no geometry in the loop.

    `rx_mw` is the one copy, site-major so a gather takes whole blocks.
    `rx_dbm`, a read-only dB view, converts the whole table on every read
    (to within about 1e-14 dB); the package itself never reads it.
    """

    rx_mw: np.ndarray  # [n_sites, n_users, 3]
    priority: np.ndarray  # [n_users] bool
    n_fixed: int
    noise_dbm: float

    @property
    def n_candidates(self) -> int:
        return self.rx_mw.shape[0] - self.n_fixed

    @property
    def rx_dbm(self) -> np.ndarray:
        return np.moveaxis(linear_to_db(self.rx_mw), 0, 1)

    def columns_for(self, site_ids) -> np.ndarray:
        """Site columns [..., k + n_fixed]: the ids along the last axis, then the fixed BS."""
        ids = np.asarray(site_ids, dtype=int)
        if not self.n_fixed:
            return ids
        fixed = np.arange(self.n_candidates, self.n_candidates + self.n_fixed)
        return np.concatenate([ids, np.broadcast_to(fixed, ids.shape[:-1] + fixed.shape)],
                              axis=-1)

    @functools.cached_property
    def _noise_mw(self):
        return db_to_linear(self.noise_dbm)

    def sinr_for(self, site_ids) -> np.ndarray:
        """SINR in dB [..., n_users] of a site set [k] or a batch of sets [..., k], each
        followed by the fixed BS: bytewise `sinr_from_rx` on the sets' dB columns.

        The signal is the largest gathered power, the serving sector's while
        `db_to_linear` is monotone. It is taken elementwise over the gathered
        site blocks and then over the three heads, which gives the row max's
        value: a max does not depend on the order it visits values in, and
        the powers are never NaN. The blocks are then swapped to the columns'
        order [..., n_users, 3(k+n_fixed)], so the row sums do not move.
        """
        lin = np.take(self.rx_mw, self.columns_for(site_ids), axis=0)
        head = np.maximum.reduce(lin, axis=-3)
        signal = np.maximum(np.maximum(head[..., 0], head[..., 1]), head[..., 2])
        lin = np.ascontiguousarray(np.swapaxes(lin, -3, -2))
        lin = lin.reshape(lin.shape[:-2] + (-1,))
        return _sinr_db(lin, signal, self._noise_mw)


def _link_table(user_pos, site_pos, prisms, params, priority, n_fixed) -> LinkGainTable:
    """`sector_rx_dbm` over the sites, each a three-sector head, made linear in
    place with `db_to_linear`'s ufuncs; the last `n_fixed` sites are fixed BS."""
    lin = np.moveaxis(sector_rx_dbm(user_pos, site_pos, prisms, params), 1, 0)
    np.divide(lin, 10.0, out=lin)
    np.power(10.0, lin, out=lin)
    return LinkGainTable(lin, priority, n_fixed, thermal_noise_dbm(params))


def build_link_table(scene, params: RadioParams, use_blockages: bool,
                     threads: int = 1) -> LinkGainTable:
    """Rx table over the scene's candidates followed by its fixed BS, made by
    the constructor `attach_and_evaluate` uses for its masts.
    `threads` is accepted for call compatibility and ignored: the table is
    one single-threaded array computation.
    """
    site_pos = scene.candidate_positions()
    if scene.fixed_bs:
        site_pos = np.vstack([site_pos, np.array(scene.fixed_bs)])
    prisms = scene.buildings if use_blockages else []
    return _link_table(scene.user_positions(), site_pos, prisms, params,
                       scene.priority_mask(), len(scene.fixed_bs))


def _sinr_db(lin: np.ndarray, signal: np.ndarray, noise_mw) -> np.ndarray:
    """SINR in dB of `signal` against the rest of its row of `lin` [..., sectors] and
    the noise power `noise_mw`.

    The steps are those of `linear_to_db(signal / (noise_mw + interference))`,
    done in place on the row sums: each is one IEEE operation either way.
    """
    sinr = lin.sum(axis=-1)
    sinr -= signal
    sinr += noise_mw
    np.divide(signal, sinr, out=sinr)
    np.log10(sinr, out=sinr)
    sinr *= 10.0
    return sinr


def attach_and_evaluate(users, sectors: list[BsSector], scene, params: RadioParams,
                        use_blockages: bool):
    """Per-user (serving sector index, SINR dB) under max-power association:
    `LinkGainTable.sinr_for` on a table of the masts, served by the first
    largest power. `sectors` is whole three-sector heads in `sectors_for_sites`
    order, so sector k sits on mast k // 3 at azimuth `SECTOR_AZIMUTHS_DEG[k % 3]`;
    any other list raises DataError.
    """
    if not sectors:
        raise DataError("sector list is empty")
    if not users:
        raise DataError("user list is empty")
    masts = np.array([s.position for s in sectors[::len(SECTOR_AZIMUTHS_DEG)]])
    if ([(*s.position, s.azimuth_deg) for s in sectors]
            != [(*s.position, s.azimuth_deg) for s in sectors_for_sites(masts, params)]):
        raise DataError("sectors must be whole three-sector heads, as sectors_for_sites "
                        "builds them")
    user_pos = np.array([np.asarray(u.position, dtype=float) for u in users])
    prisms = scene.buildings if (use_blockages and scene is not None) else []
    table = _link_table(user_pos, masts, prisms, params,
                        np.array([u.priority for u in users], dtype=bool), 0)
    serving = np.argmax(np.moveaxis(table.rx_mw, 0, 1).reshape(len(users), -1), axis=-1)
    return serving, table.sinr_for(np.arange(len(masts)))


def sinr_from_rx(rx_dbm: np.ndarray, noise_dbm: float):
    """Association and SINR from a per-user sector rx matrix [..., users, sectors].

    Serving sector is the max-power column, first index on ties. Returns
    (serving index per user, SINR in dB per user), each [..., users];
    leading axes are a batch of independent placements.
    """
    if rx_dbm.ndim < 2 or rx_dbm.shape[-1] == 0:
        raise DataError("need at least one sector")
    lin = db_to_linear(rx_dbm)
    serving = np.argmax(rx_dbm, axis=-1)
    signal = np.take_along_axis(lin, serving[..., None], axis=-1)[..., 0]
    return serving, _sinr_db(lin, signal, db_to_linear(noise_dbm))


def sinr_db(user, serving: int, all_sectors: list[BsSector], scene,
            params: RadioParams, use_blockages: bool) -> float:
    """SINR for one user with an imposed serving sector."""
    if not (0 <= serving < len(all_sectors)):
        raise DataError(f"serving index {serving} outside sector list")
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
        raise DataError("n_attached must be >= 1")
    s = np.asarray(sinr_db_value, dtype=float)
    capped = db_to_linear(np.minimum(s, SINR_CAP_DB))
    rate = (params.bandwidth_mhz / n) * np.log2(1.0 + capped)
    rate = np.where(s < SINR_FLOOR_DB, 0.0, rate)
    return float(rate) if np.isscalar(sinr_db_value) else rate
