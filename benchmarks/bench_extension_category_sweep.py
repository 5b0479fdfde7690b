"""Extension: how does storm intensity move the case-study results?

The paper fixes a Category-2 hurricane.  Sweeping the storm category
through the same framework shows how the headline probabilities scale --
the kind of planning curve a utility would actually want.
"""

from __future__ import annotations

from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import HURRICANE
from repro.geo import HONOLULU_CC, build_oahu_catalog, build_oahu_region
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.inundation import ExtensionParams
from repro.hazards.hurricane.standard import (
    OAHU_SOUTH_SHORE_BASIN,
    oahu_scenario_for_category,
)
from repro.scada.architectures import CONFIG_2, CONFIG_6_6_6
from repro.scada.placement import PLACEMENT_KAHE, PLACEMENT_WAIAU

CATEGORIES = [1, 2, 3, 4]
REALIZATIONS = 300  # per category; the sweep runs 4 ensembles


def sweep():
    region = build_oahu_region()
    catalog = build_oahu_catalog()
    ext = ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,))
    rows = []
    for category in CATEGORIES:
        generator = EnsembleGenerator(
            region=region,
            catalog=catalog,
            scenario=oahu_scenario_for_category(category),
            extension_params=ext,
        )
        ensemble = generator.generate(count=REALIZATIONS, seed=20220522)
        analysis = CompoundThreatAnalysis(ensemble)
        red_waiau = analysis.run(CONFIG_2, PLACEMENT_WAIAU, HURRICANE).probability(S.RED)
        green_kahe = analysis.run(CONFIG_6_6_6, PLACEMENT_KAHE, HURRICANE).probability(
            S.GREEN
        )
        rows.append(
            {
                "category": category,
                "p_flood": ensemble.flood_probability(HONOLULU_CC),
                "p_red_config2": red_waiau,
                "p_green_666_kahe": green_kahe,
            }
        )
    return rows


def test_extension_category_sweep(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("Storm-category sweep (300 realizations per category):")
    red_label = 'P(red) "2"'
    print(
        f"  {'cat':>3s} {'P(Hon floods)':>14s} {red_label:>11s} "
        f"{'P(green) 6+6+6@Kahe':>20s}"
    )
    for row in rows:
        print(
            f"  {row['category']:3d} {row['p_flood']:14.1%} "
            f"{row['p_red_config2']:11.1%} {row['p_green_666_kahe']:20.1%}"
        )

    floods = [row["p_flood"] for row in rows]
    # Stronger storms flood the control center more often.
    assert all(b >= a - 1e-12 for a, b in zip(floods, floods[1:]))
    # Config "2" red probability equals the flood probability per category.
    for row in rows:
        assert abs(row["p_red_config2"] - row["p_flood"]) < 1e-9
    # A Category 1 storm rarely floods; Category 4 floods far more.
    assert rows[0]["p_flood"] < 0.05
    assert rows[-1]["p_flood"] > rows[1]["p_flood"]
