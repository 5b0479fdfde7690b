"""Extension: grid <-> communications interdependency amplification.

Couples the grid cascade to the WAN's power supply (related work
[18]-[20]): an uncontrolled cascade starves PoPs, partitioning the WAN
and locking SCADA out.  The bench quantifies the amplification the
coupling adds over the pure-grid analysis.
"""

from __future__ import annotations

from repro.geo import DRFORTRESS, HONOLULU_CC, KAHE_CC, WAIAU_CC, build_oahu_catalog
from repro.grid.contingency import simulate_contingency
from repro.grid.model import build_oahu_grid
from repro.network.interdependency import InterdependencyAnalysis
from repro.network.topology import build_site_wan

SITES = [HONOLULU_CC, WAIAU_CC, KAHE_CC, DRFORTRESS]


def run_coupled_study():
    catalog = build_oahu_catalog()
    grid = build_oahu_grid(catalog)
    analysis = InterdependencyAnalysis(
        grid=grid, wan=build_site_wan(catalog, SITES)
    )
    rows = []
    for line in grid.lines:
        outage = {line.key}
        controlled = analysis.cascade(outage, scada_initially_operational=True)
        uncontrolled = analysis.cascade(outage, scada_initially_operational=False)
        pure_uncontrolled = simulate_contingency(grid, outage, False)
        rows.append(
            {
                "line": line.key,
                "controlled": controlled.served_fraction,
                "uncontrolled": uncontrolled.served_fraction,
                "pure_grid_uncontrolled": pure_uncontrolled.served_fraction,
                "dead_pops": len(uncontrolled.dead_pops),
            }
        )
    return rows


def test_extension_interdependency(benchmark):
    rows = benchmark.pedantic(run_coupled_study, rounds=1, iterations=1)

    print()
    print("Coupled grid/comms N-1 (served fraction):")
    worst = sorted(rows, key=lambda r: r["uncontrolled"])[:5]
    print(f"  {'line':55s} {'ctrl':>6s} {'unctl':>6s} {'pops down':>10s}")
    for row in worst:
        line = f"{row['line'][0]} -- {row['line'][1]}"
        print(
            f"  {line:55s} {row['controlled']:6.1%} "
            f"{row['uncontrolled']:6.1%} {row['dead_pops']:10d}"
        )

    # Most contingencies: the controlled coupled system serves fully.
    fully_served = [row for row in rows if row["controlled"] >= 0.999]
    assert len(fully_served) >= len(rows) // 2
    # The amplification: on severe islanding lines the load shed starves
    # PoPs even under control, SCADA loses connectivity, and the coupled
    # fixed point collapses a *controlled* start to the uncontrolled
    # outcome -- the effect analyzing either infrastructure alone misses.
    amplified = [
        row
        for row in rows
        if row["controlled"] < 0.9
        and abs(row["controlled"] - row["uncontrolled"]) < 1e-9
    ]
    assert amplified, "expected at least one coupled collapse"
    # The uncontrolled coupled outcome is never better than the pure-grid
    # uncontrolled outcome, and at least one contingency kills PoPs.
    for row in rows:
        assert row["uncontrolled"] <= row["pure_grid_uncontrolled"] + 1e-9
    assert any(row["dead_pops"] > 0 for row in rows)
