"""Workloads: the scenarios behind every table and figure."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "loadgen": (
        "LoadgenConfig",
        "LoadgenFleet",
        "build_loadgen",
        "run_loadgen",
    ),
    "scenarios": (
        "ChainScenario",
        "Fig6Scenario",
        "MarketplaceTestbed",
        "build_chain",
        "deployed_chain",
    ),
    "wan": (
        "CITY_SPECS",
        "INTERNAL_RTT_MS",
        "LONDON_ASN",
        "CitySpec",
        "ProtoSpec",
        "WanScenario",
        "build_city_link",
    ),
    "wanbench": (
        "ContinentScenario",
        "ModeOutcome",
        "WanbenchConfig",
        "build_continent",
        "run_campaign",
        "run_event_baseline",
        "run_wanbench",
        "small_config",
    ),
})
