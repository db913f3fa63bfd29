"""Tests for the top-level public API surface."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def fresh_interpreter(code: str, env=None) -> str:
    """What *code* prints in a new interpreter that imports ``repro``
    from this checkout, stripped."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**(os.environ if env is None else env), "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize("module", [
        "repro.sim",
        "repro.sim.events",
        "repro.core",
        "repro.errors",
        "repro.analysis.metrics",
        "repro.workloads.access_patterns",
    ])
    def test_subpackage_all_names_resolve(self, module):
        """A name deleted from a module leaves its ``__all__`` with it."""
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name} missing"

    def test_quickstart_flow(self):
        """The README quickstart must work as written (at reduced scale)."""
        spec = repro.scenario_1(scale=0.1)
        greedy = repro.run_scenario(spec, "greedy", seed=1)
        smart = repro.run_scenario(spec, "smart-alloc:P=6", seed=1)
        assert isinstance(greedy.mean_runtime_s(), float)
        assert isinstance(smart.mean_runtime_s(), float)
        table = repro.render_runtime_table({"greedy": greedy, "smart": smart})
        assert "VM1/run1" in table

    def test_custom_policy_registration(self):
        """Users can add their own policy and select it by name."""
        from repro.core.policy import TmemPolicy, create_policy, register_policy
        from repro.core.targets import equal_share

        name = "half-pool-test-policy"

        @register_policy(name)
        class HalfPool(TmemPolicy):
            def decide(self, memstats):
                from repro.core.policy import PolicyDecision
                vec = equal_share(memstats.vm_ids(), memstats.total_tmem // 2)
                return PolicyDecision.set_targets(vec)

        policy = create_policy(name)
        assert policy.name == name
        assert name in repro.available_policies()

        # The shipped example declares its parameters' bounds, so a bad
        # value fails when the policy is built, not mid-run.
        from repro.core.policy import POLICIES

        script = Path(__file__).resolve().parent.parent / "examples" / "custom_policy.py"
        loader = importlib.util.spec_from_file_location("custom_policy", script)
        loader.loader.exec_module(importlib.util.module_from_spec(loader))
        try:
            assert create_policy("proportional-demand:smoothing=0.25")._alpha == 0.25
            with pytest.raises(
                repro.PolicyError, match="'smoothing': expected a finite number, got nan"
            ):
                create_policy("proportional-demand:smoothing=nan")
        finally:
            POLICIES.classes.pop("proportional-demand")

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.core.policies",
            "repro.cluster",
            "repro.hypervisor",
            "repro.guest",
            "repro.devices",
            "repro.channels",
            "repro.sim",
            "repro.workloads",
            "repro.scenarios",
            "repro.analysis",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_error_hierarchy(self):
        assert issubclass(repro.TmemError, repro.ReproError)
        assert issubclass(repro.PolicyError, repro.ReproError)
        assert issubclass(repro.ScenarioError, repro.ReproError)

    def test_import_loads_no_dsl_sweep_service_or_analysis(self):
        """The DSL and PyYAML, the sweep packages (with the service's
        ``http.server`` and ``urllib.request``) and the analysis package
        load on first use, so ``import repro`` (and the setup time of
        every run) does not pay for them.  ``import repro`` loads no
        subpackage at all, and building a single-host runner loads none
        of the cluster-only modules, the parametric families or the
        multiprocessing machinery."""
        code = (
            "import sys, repro; "
            "print(sorted(m for m in ('yaml', 'repro.scenarios.dsl', "
            "'repro.experiments', 'repro.analysis', 'http.server', "
            "'urllib.request') if m in sys.modules)); "
            "print(sorted(m for m, module in sys.modules.items() "
            "if m.startswith('repro.') and hasattr(module, '__path__')))"
        )
        assert fresh_interpreter(code) == "[]\n[]"
        cluster_only = [
            "repro.hypervisor.remote_tmem", "repro.channels.internode",
            "repro.core.coordinator", "repro.cluster.epoch",
            "repro.cluster.sharded", "repro.cluster.faults",
            "repro.scenarios.families", "repro.scenarios.dsl", "multiprocessing",
        ]
        for policy in ("smart-alloc", "no-tmem"):
            code = (
                "import sys\n"
                "from repro.scenarios.library import usemem_scenario\n"
                "from repro.scenarios.runner import ScenarioRunner\n"
                f"ScenarioRunner(usemem_scenario(scale=0.1), {policy!r}, seed=1)\n"
                f"print(sorted(set({cluster_only!r}) & set(sys.modules)))"
            )
            assert fresh_interpreter(code) == "[]", policy

    @pytest.mark.parametrize("runner, build", [
        ("repro.scenarios.runner import ScenarioRunner",
         "ScenarioRunner(scenario_by_name('usemem-scenario', scale=0.1), "
         "'smart-alloc', seed=1)"),
        ("repro.scenarios.runner import ScenarioRunner",
         "ScenarioRunner(scenario_by_name('contended:nodes=2', scale=0.05), "
         "'smart-alloc', seed=1)"),
        ("repro.cluster.sharded import ShardedClusterRunner",
         "ShardedClusterRunner(scenario_by_name('shard:nodes=2', scale=0.05), "
         "'smart-alloc', shards=2, seed=1)"),
    ], ids=["single-host", "contended", "two-process-shards"])
    def test_run_imports_nothing_set_up_did_not(self, runner, build):
        """Every import a run needs happens while its runner is built:
        ``run()`` loads no ``repro`` module, on a single host, on a
        multi-node cluster, and in the parent of forked shard workers,
        which start with everything the parent loaded for them."""
        code = (
            "import sys\n"
            "from repro.scenarios.registry import scenario_by_name\n"
            f"from {runner}\n"
            "if __name__ == '__main__':\n"
            f"    runner = {build}\n"
            "    before = set(sys.modules)\n"
            "    runner.run()\n"
            "    print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] == 'repro'))"
        )
        assert fresh_interpreter(code) == "[]"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_import_starts_no_blas_thread_pool(self):
        """Importing ``repro`` first loads numpy with one OpenBLAS thread
        and restores the environment; a caller's own setting is kept."""
        code = (
            "import os, repro\n"
            "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]\n"
            "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert fresh_interpreter(code, env) == "1 None"
        env["OPENBLAS_NUM_THREADS"] = "2"
        assert fresh_interpreter(code, env).split()[1] == "2"
