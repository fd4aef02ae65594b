"""Guard rails on the package's public surface."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_classes_importable(self):
        # The API a downstream user builds against.
        for name in (
            "LoadBalancer",
            "BalancerConfig",
            "BlockingRateFunction",
            "solve_minimax_fox",
            "ExperimentConfig",
            "run_experiment",
            "ParallelRegion",
            "Application",
            "StreamGraph",
            "Simulator",
            "OverloadManager",
            "OverloadConfig",
            "RatedSource",
            "overload_scenario",
        ):
            assert name in repro.__all__, name

    def test_no_accidental_module_exports(self):
        # __all__ should list classes/functions, not submodules.
        import types

        for name in repro.__all__:
            if name == "__version__":
                continue
            assert not isinstance(getattr(repro, name), types.ModuleType), name
