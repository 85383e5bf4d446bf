"""Work budgets: exact counts of the expensive operations a workload does.

Wall-clock time cannot resolve a small change on a shared host, but
operation counts repeat exactly.  Each check runs a small in-process slice
of a workload under counting patches and pins how often the work itself
runs -- a memo hit counts nothing:

- blueprint sampling passes (``CorpusGenerator._sample``);
- DroidNative trainings (``families.training_corpus``);
- lineage version steps planned (``lineage._mutate``).

Every check starts from empty process-wide memos, so it counts what one
fresh process would do.
"""

import threading

import pytest

import repro.corpus.generator as generator_module
import repro.evolution.lineage as lineage_module
import repro.static_analysis.malware.droidnative as droidnative_module
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator
from repro.evolution import EvolveConfig, run_evolution
from repro.memo import BuildOnce
from repro.service import AnalysisService, ServiceConfig
from repro.static_analysis.malware import families


def pipeline_config(**overrides):
    return DyDroidConfig(train_samples_per_family=2, run_replays=False, **overrides)


@pytest.fixture
def counts(monkeypatch):
    """Fresh memos, and a tally of sampling passes and trainings."""
    monkeypatch.setattr(
        generator_module, "_TABLES",
        BuildOnce(capacity=generator_module.TABLE_MEMO_BLUEPRINTS, weight=len),
    )
    monkeypatch.setattr(droidnative_module, "_TRAINED", BuildOnce())
    tally = {"sampling_passes": 0, "trainings": 0}
    lock = threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        CorpusGenerator, "_sample", counting("sampling_passes", CorpusGenerator._sample)
    )
    monkeypatch.setattr(
        families, "training_corpus", counting("trainings", families.training_corpus)
    )
    return tally


def test_concurrent_fresh_jobs_of_one_market_sample_it_once(counts):
    """8 distinct fresh specs of one (seed, n_apps), 2 daemon threads."""
    service = AnalysisService(ServiceConfig(workers=2, pipeline=pipeline_config()))
    service.start()
    try:
        barrier = threading.Barrier(8)
        statuses = []

        def submit(index):
            barrier.wait(timeout=10)
            spec = {"kind": "corpus", "seed": 23, "n_apps": 12, "index": index}
            statuses.append(service.submit(spec)[0])

        threads = [threading.Thread(target=submit, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        drained = service.drain(timeout=120.0)
    assert drained and statuses == [202] * 8
    assert service.registry.counter_value("service.jobs.completed") == 8
    assert counts == {"sampling_passes": 1, "trainings": 1}


def test_every_pipeline_of_one_config_shares_one_training(counts):
    for _ in range(3):
        DyDroid(pipeline_config())
    other_thread = threading.Thread(target=DyDroid, args=(pipeline_config(),))
    other_thread.start()
    other_thread.join(timeout=60)
    assert counts["trainings"] == 1
    DyDroid(pipeline_config(training_seed=1))
    assert counts["trainings"] == 2


def test_evolution_trains_once_and_samples_once(counts, monkeypatch):
    mutations = []
    mutate = lineage_module._mutate

    def counting_mutate(*args):
        mutations.append(None)
        return mutate(*args)

    monkeypatch.setattr(lineage_module, "_mutate", counting_mutate)
    result = run_evolution(
        EvolveConfig(n_apps=10, n_versions=4, seed=3, workers=1, pipeline=pipeline_config())
    )
    assert result.metrics["snapshots_analyzed"] == 40
    assert counts == {"sampling_passes": 1, "trainings": 1}
    # Each shard plans only its own apps: 40 snapshots x 3 later versions.
    assert len(mutations) == 120
