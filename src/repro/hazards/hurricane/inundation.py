"""Inundation post-processing: shoreline averaging and inland extension.

Mirrors the paper's treatment of the raw surge output (Section V-A):

1. **Shoreline averaging** -- the coarse mesh produces anomalous readings
   (e.g. 1.5 m at one node, 0 m nearby), so water surface elevations are
   averaged along the shoreline within each segment.
2. **Extension onto the shoreline** -- the smoothed water surface elevation
   is extended inland to asset locations, attenuating with inland distance,
   to produce the inundation estimate at each power asset.
3. **Depth at asset** -- inundation depth is the extended WSE minus the
   asset's ground elevation, floored at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HazardError
from repro.geo.catalog import AssetCatalog, AssetRecord
from repro.geo.region import CoastalRegion
from repro.hazards.hurricane.mesh import CoastalMesh


def smooth_shoreline(mesh: CoastalMesh, wse_m: np.ndarray, window: int = 2) -> np.ndarray:
    """Moving-average WSE along the shoreline, within each segment.

    The coarse mesh yields anomalous zero readings next to metre-scale ones
    (paper Section V-A); zeros are therefore treated as *missing* readings
    and each node is replaced by the mean of the non-zero readings in the
    ``2*window + 1`` node window centred on it (clipped to the segment).
    A window with no valid readings stays at zero.

    ``wse_m`` is one realization's ``(n,)`` readings or an ``(R, n)``
    block of them; each row is smoothed independently and bitwise
    identically to smoothing it alone.
    """
    if window < 0:
        raise HazardError("smoothing window must be non-negative")
    values = np.asarray(wse_m, dtype=float)
    n = len(mesh)
    if values.shape[-1:] != (n,) or values.ndim > 2:
        raise HazardError(
            f"wse array has shape {values.shape}, expected ({n},) or (R, {n})"
        )
    rows = values.reshape(-1, n)
    # Lay the segments out with ``window`` zeros before, between and after
    # them: every node then sees a full-width window whose entries beyond
    # its segment are invalid (<= 0), so they drop out of both the sum and
    # the count, reproducing the clipped-window mean exactly.
    slices = list(mesh.segment_slices().values())
    positions = np.concatenate(
        [np.arange(s.start, s.stop) + window * (k + 1) for k, s in enumerate(slices)]
    )
    padded = np.zeros((rows.shape[0], n + window * (len(slices) + 1)))
    padded[:, positions] = np.where(rows > 0.0, rows, 0.0)
    valid = (padded > 0.0).astype(np.int64)
    # 2*window + 1 shifted adds, left to right across each window: the
    # same order as a left-to-right sum over the window's readings.
    width = padded.shape[1] - 2 * window
    sums = padded[:, 0:width].copy()
    counts = valid[:, 0:width].copy()
    for shift in range(1, 2 * window + 1):
        sums += padded[:, shift:shift + width]
        counts += valid[:, shift:shift + width]
    centre = positions - window
    sums = sums[:, centre]
    counts = counts[:, centre]
    smoothed = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return smoothed.reshape(values.shape)


def smooth_shoreline_reference(
    mesh: CoastalMesh, wse_m: np.ndarray, window: int = 2
) -> np.ndarray:
    """:func:`smooth_shoreline` by its definition, in plain Python.

    Each node becomes the mean of the positive readings in its clipped
    window, summed left to right.  Kept as the oracle the block kernel is
    checked against bitwise.
    """
    out = [0.0] * len(wse_m)
    for seg in mesh.segment_slices().values():
        for i in range(seg.start, seg.stop):
            lo, hi = max(seg.start, i - window), min(seg.stop, i + window + 1)
            readings = [float(v) for v in wse_m[lo:hi] if v > 0.0]
            out[i] = sum(readings) / len(readings) if readings else 0.0
    return np.array(out)


@dataclass(frozen=True)
class Basin:
    """A hydraulically connected littoral strip.

    With a coarse mesh, nearby shoreline assets on the same low-lying
    coastal plain see the *same* extended water surface elevation -- the
    paper's averaging + "extend onto the shoreline" post-processing
    homogenizes WSE along the shore.  A basin names the shoreline segments
    forming one such strip; every asset within ``membership_distance_km``
    of the strip receives the basin-average smoothed WSE (no per-asset
    attenuation), so co-located assets flood together exactly as the
    paper's Honolulu and Waiau control centers do.
    """

    name: str
    segment_names: tuple[str, ...]
    membership_distance_km: float = 3.0

    def __post_init__(self) -> None:
        if not self.segment_names:
            raise HazardError(f"basin {self.name!r} needs at least one segment")
        if self.membership_distance_km <= 0.0:
            raise HazardError("basin membership distance must be positive")


@dataclass(frozen=True)
class ExtensionParams:
    """How smoothed shoreline WSE is extended inland to assets."""

    influence_radius_km: float = 6.0  # shoreline nodes considered per asset
    idw_power: float = 2.0  # inverse-distance weighting exponent
    inland_decay_km: float = 3.0  # e-folding of WSE with inland distance
    smoothing_window: int = 2
    basins: tuple[Basin, ...] = ()

    def __post_init__(self) -> None:
        if self.influence_radius_km <= 0.0:
            raise HazardError("influence radius must be positive")
        if self.idw_power <= 0.0:
            raise HazardError("IDW power must be positive")
        if self.inland_decay_km <= 0.0:
            raise HazardError("inland decay length must be positive")


class InundationMapper:
    """Precomputed map from shoreline WSE to per-asset inundation depth.

    The node weights, inland attenuation, and elevations for a fixed
    (mesh, catalog) pair do not change between hurricane realizations, so
    they are assembled once into matrices; mapping a realization is then a
    single matrix-vector product.  This is what lets the ensemble generator
    process 1000 realizations in seconds.
    """

    def __init__(
        self,
        region: CoastalRegion,
        mesh: CoastalMesh,
        catalog: AssetCatalog,
        params: ExtensionParams | None = None,
    ) -> None:
        self.region = region
        self.mesh = mesh
        self.catalog = catalog
        self.params = params or ExtensionParams()
        self.asset_names = catalog.names
        self._elevations = np.array([catalog.get(n).elevation_m for n in self.asset_names])
        self._weights = self._build_weights()
        self.node_support = self._build_support()

    def _basin_for(self, asset_name: str) -> Basin | None:
        """The basin an asset belongs to, if any."""
        asset = self.catalog.get(asset_name)
        node_xy = self.mesh.xy_km
        ax, ay = self.mesh.projection.to_xy(asset.location)
        dist = np.hypot(node_xy[:, 0] - ax, node_xy[:, 1] - ay)
        for basin in self.params.basins:
            member_nodes = [
                i
                for i, node in enumerate(self.mesh.nodes)
                if node.segment_name in basin.segment_names
            ]
            if not member_nodes:
                raise HazardError(
                    f"basin {basin.name!r} matches no mesh nodes; check its "
                    "segment names"
                )
            if dist[member_nodes].min() <= basin.membership_distance_km:
                return basin
        return None

    def _build_weights(self) -> np.ndarray:
        """(n_assets, n_nodes) matrix mapping smoothed WSE to asset WSE.

        Basin members get a uniform average over the basin's nodes (the
        shared littoral water level); other assets get inverse-distance
        weights over nearby nodes times an inland attenuation.
        """
        p = self.params
        node_xy = self.mesh.xy_km
        weights = np.zeros((len(self.asset_names), len(self.mesh)))
        for i, name in enumerate(self.asset_names):
            asset = self.catalog.get(name)
            basin = self._basin_for(name)
            if basin is not None:
                member = np.array(
                    [
                        node.segment_name in basin.segment_names
                        for node in self.mesh.nodes
                    ]
                )
                weights[i] = member / member.sum()
                continue
            ax, ay = self.mesh.projection.to_xy(asset.location)
            dist = np.hypot(node_xy[:, 0] - ax, node_xy[:, 1] - ay)
            in_range = dist <= p.influence_radius_km
            if not np.any(in_range):
                # Asset far inland: nearest node only, heavy attenuation.
                in_range = dist <= dist.min() + 1e-9
            d = np.maximum(dist, 0.1)
            w = np.where(in_range, 1.0 / d**p.idw_power, 0.0)
            w /= w.sum()
            inland_km = self.region.distance_to_shore_km(asset.location)
            if not self.region.contains(asset.location):
                inland_km = 0.0
            attenuation = float(np.exp(-inland_km / p.inland_decay_km))
            weights[i] = w * attenuation
        return weights

    def _build_support(self) -> np.ndarray:
        """Sorted indices of the mesh nodes whose WSE can reach an asset.

        A node reaches an asset when its column of the weight matrix is
        not all zero, or when it lies within ``smoothing_window`` nodes of
        such a node in the same segment (smoothing reads those
        neighbours).  The WSE at every other node is multiplied by a zero
        weight, so a surge kernel may leave it at 0 without changing a
        depth.
        """
        read = np.flatnonzero(self._weights.any(axis=0))
        window = self.params.smoothing_window
        support = np.zeros(len(self.mesh), dtype=bool)
        for seg in self.mesh.segment_slices().values():
            for i in read[(read >= seg.start) & (read < seg.stop)]:
                support[max(seg.start, i - window):min(seg.stop, i + window + 1)] = True
        nodes = np.flatnonzero(support)
        nodes.flags.writeable = False
        return nodes

    def depth_block(self, wse_rows: np.ndarray) -> np.ndarray:
        """(R, n_assets) inundation depths from an (R, n_nodes) WSE block.

        Smoothing runs on the whole block; the inland extension is one
        matrix-vector product per row (``W @ row``), because a block
        matrix product may sum in a different order and move the last bit.
        """
        smoothed = smooth_shoreline(self.mesh, wse_rows, self.params.smoothing_window)
        extended = np.empty((len(smoothed), len(self.asset_names)))
        for row, out in zip(smoothed, extended):
            out[:] = self._weights @ row
        return np.maximum(0.0, extended - self._elevations)

    def depths_from_wse(self, wse_m: np.ndarray) -> dict[str, float]:
        """Per-asset inundation depth (m) from raw shoreline WSE readings."""
        depths = self.depth_block(np.asarray(wse_m, dtype=float)[None, :])[0]
        return dict(zip(self.asset_names, depths.tolist()))

    def wse_at_asset(self, wse_m: np.ndarray, asset: AssetRecord) -> float:
        """Extended (pre-elevation-subtraction) WSE at one asset."""
        smoothed = smooth_shoreline(self.mesh, wse_m, self.params.smoothing_window)
        idx = self.asset_names.index(asset.name)
        return float(self._weights[idx] @ smoothed)


@dataclass(frozen=True)
class InundationField:
    """The inundation outcome of one hurricane realization."""

    depths_m: dict[str, float]

    def depth_at(self, asset_name: str) -> float:
        try:
            return self.depths_m[asset_name]
        except KeyError:
            raise HazardError(f"no inundation data for asset {asset_name!r}") from None

    def flooded_assets(self, threshold_m: float) -> frozenset[str]:
        return frozenset(
            name for name, depth in self.depths_m.items() if depth > threshold_m
        )
