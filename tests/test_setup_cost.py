"""Set-up work a run never uses costs nothing.

- Predictor training belongs to the SMIless policies: building an
  environment, or running a policy that reads no predictor, trains
  nothing, while a SMIless cell trains on construction and still
  reproduces its golden summary.
- SciPy is imported only by the Bayesian optimizer (``aquatope``), so a
  cold import of the CLI or the experiment runners never loads it.
- ``HardwareConfig`` caches its hash; pickling must rebuild it, because
  ``Backend`` hashes its name and string hashes differ per process.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import build_environment
from repro.experiments.parallel import CellSpec, EnvSpec, run_cell
from repro.hardware.configs import ConfigurationSpace, HardwareConfig
from repro.policies import smiless as smiless_mod
from tests.test_determinism_golden import GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def empty_predictor_cache():
    smiless_mod._PREDICTOR_CACHE.clear()
    yield smiless_mod._PREDICTOR_CACHE
    smiless_mod._PREDICTOR_CACHE.clear()


# ------------------------------------------------------------ predictors
def test_build_environment_trains_nothing(empty_predictor_cache):
    build_environment("image-query", duration=30.0, train_duration=300.0)
    assert empty_predictor_cache == {}


@pytest.mark.parametrize("policy", ["grandslam", "orion"])
def test_predictor_free_policy_cell_trains_nothing(empty_predictor_cache, policy):
    env = EnvSpec("amber-alert", duration=30.0, train_duration=300.0, seed=5)
    result = run_cell(CellSpec(env, policy))
    assert result.summary["invocations"] > 0
    assert empty_predictor_cache == {}


def test_smiless_cell_trains_and_matches_golden(empty_predictor_cache):
    # The environment of the determinism goldens, built through run_cell.
    env = EnvSpec("image-query", preset="steady", sla=2.0, duration=150.0, seed=0)
    result = run_cell(CellSpec(env, "smiless", sim_seed=3))
    assert {key[0] for key in empty_predictor_cache} == {
        "invocation",
        "interarrival",
    }
    assert result.summary == GOLDEN["smiless"]


def test_pretrain_predictors_still_importable_from_runners(empty_predictor_cache):
    from repro.experiments import runners

    env = build_environment("image-query", duration=30.0, train_duration=300.0)
    runners.pretrain_predictors(env.train_counts)
    assert len(empty_predictor_cache) == 2
    # A SMIless policy built afterwards hits the cache: nothing retrains.
    policy = env.make_policy("smiless")
    assert policy.invocation_predictor in empty_predictor_cache.values()
    assert len(empty_predictor_cache) == 2


def test_aquatope_runs_with_lazy_scipy():
    env = EnvSpec("amber-alert", duration=30.0, train_duration=300.0, seed=5)
    result = run_cell(CellSpec(env, "aquatope"))
    assert result.summary["invocations"] > 0
    assert "scipy.linalg" in sys.modules


# ------------------------------------------------------------ imports
def test_cold_import_of_cli_and_runners_skips_scipy():
    proc = _python(
        """
        import sys
        import repro.cli
        import repro.experiments.runners
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(",".join(loaded))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------ config hash
def test_cached_hash_equals_generated_dataclass_hash():
    for cfg in ConfigurationSpace.default():
        assert hash(cfg) == hash((cfg.backend, cfg.cpu_cores, cfg.gpu_fraction))


def test_pickled_configs_hash_correctly_under_another_hash_seed(tmp_path):
    configs = list(ConfigurationSpace.default())
    counts = Counter({cfg: i + 1 for i, cfg in enumerate(configs)})
    blob = tmp_path / "configs.pickle"
    blob.write_bytes(pickle.dumps((configs, counts)))
    parent_seed = os.environ.get("PYTHONHASHSEED", "random")
    child_seed = "1" if parent_seed != "1" else "2"
    proc = _python(
        f"""
        import pickle
        from repro.hardware.configs import ConfigurationSpace

        configs, counts = pickle.loads(open({str(blob)!r}, "rb").read())
        fresh = list(ConfigurationSpace.default())
        assert configs == fresh
        for i, (old, new) in enumerate(zip(configs, fresh)):
            assert hash(old) == hash(new), old
            assert counts[new] == i + 1, new  # the lookup hits
            assert new in set(configs)
        print("ok")
        """,
        PYTHONHASHSEED=child_seed,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_config_copies_rebuild_through_init():
    import copy

    cfg = HardwareConfig.gpu(0.3)
    for clone in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert clone == cfg and hash(clone) == hash(cfg)
