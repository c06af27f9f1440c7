"""ArtifactStore as a get-or-generate cache: regeneration, rejects, clear.

Pins what a caller of ``get_or_generate`` / ``get_or_generate_fleet``
sees: a request larger than the cached set regenerates, a short
generator output is refused, a cached row prefix is served (and metered
per instance), and ``clear()`` sweeps every kind of entry plus orphaned
staging files.
"""

import numpy as np
import pytest

from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import CRPSet, generate_crps
from repro.runtime.store import ArtifactStore, artifact_digest


def make_crps(seed=0, m=100, n=12):
    puf = ArbiterPUF(n, np.random.default_rng(seed))
    return generate_crps(puf, m, np.random.default_rng(seed + 1))


def make_fleet_plane(seed=0, m=40, n=10, size=6):
    rng = np.random.default_rng(seed)
    challenges = (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)
    responses = (1 - 2 * rng.integers(0, 2, size=(m, size))).astype(np.int8)
    return challenges, responses


def test_larger_request_regenerates(tmp_path):
    store = ArtifactStore(tmp_path)
    store.get_or_generate(
        puf_spec="a", seed=3, distribution="uniform", m=50,
        generate=lambda: make_crps(m=50),
    )
    bigger = store.get_or_generate(
        puf_spec="a", seed=3, distribution="uniform", m=80,
        generate=lambda: make_crps(m=80),
    )
    assert len(bigger) == 80
    assert store.misses == 2


def test_short_generator_output_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="fewer than requested"):
        store.get_or_generate(
            puf_spec="a", seed=4, distribution="uniform", m=100,
            generate=lambda: make_crps(m=10),
        )


def test_clear_removes_entries(tmp_path):
    store = ArtifactStore(tmp_path)
    store.get_or_generate(
        puf_spec="a", seed=5, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    assert store.clear() == 1
    assert store.load(artifact_digest("crps", "a", 5, "uniform")) is None


def test_clear_sweeps_orphaned_staging_files(tmp_path):
    store = ArtifactStore(tmp_path)
    store.get_or_generate(
        puf_spec="a", seed=9, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    orphan = tmp_path / "crps-deadbeef-x1y2z3.tmp.npz"
    orphan.write_bytes(b"partial write from a killed process")
    assert store.clear() == 2
    assert not orphan.exists()


def test_roundtrip_preserves_dtypes(tmp_path):
    store = ArtifactStore(tmp_path)
    store.get_or_generate(
        puf_spec="a", seed=6, distribution="uniform", m=20,
        generate=lambda: make_crps(m=20),
    )
    reloaded = store.get_or_generate(
        puf_spec="a", seed=6, distribution="uniform", m=20,
        generate=lambda: pytest.fail("must hit"),
    )
    assert isinstance(reloaded, CRPSet)
    assert reloaded.challenges.dtype == np.int8
    assert reloaded.responses.dtype == np.int8


# ----------------------------------------------------------------------
# Fleet response-plane entries
# ----------------------------------------------------------------------
def test_fleet_hit_serves_row_prefix(tmp_path):
    store = ArtifactStore(tmp_path)
    challenges, responses = make_fleet_plane(m=50)
    store.get_or_generate_fleet(
        "s", 3, "uniform", "int8", (10, 6), 50, lambda: (challenges, responses)
    )
    got_c, got_r = store.get_or_generate_fleet(
        "s", 3, "uniform", "int8", (10, 6), 20,
        lambda: pytest.fail("prefix request must hit"),
    )
    assert store.hits == 1
    assert np.array_equal(got_c, challenges[:20])
    assert np.array_equal(got_r, responses[:20])
    assert got_c.dtype == np.int8 and got_r.dtype == np.int8


def test_fleet_short_generator_output_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError, match="fewer than requested"):
        store.get_or_generate_fleet(
            "s", 9, "uniform", "int8", (10, 6), 100,
            lambda: make_fleet_plane(m=40),
        )


def test_clear_sweeps_fleet_entries_too(tmp_path):
    store = ArtifactStore(tmp_path)
    store.get_or_generate(
        puf_spec="a", seed=1, distribution="uniform", m=10,
        generate=lambda: make_crps(m=10),
    )
    store.get_or_generate_fleet(
        "s", 1, "uniform", "int8", (10, 6), 40, lambda: make_fleet_plane()
    )
    assert store.clear() == 2
    assert list(tmp_path.glob("*.npz")) == []


def test_fleet_hit_meters_per_instance_queries(tmp_path):
    from repro.telemetry.meter import QueryMeter, metered

    store = ArtifactStore(tmp_path)
    store.get_or_generate_fleet(
        "s", 2, "uniform", "int8", (10, 6), 40, lambda: make_fleet_plane()
    )
    meter = QueryMeter()
    with metered(meter):
        store.get_or_generate_fleet(
            "s", 2, "uniform", "int8", (10, 6), 30,
            lambda: pytest.fail("must hit"),
        )
    assert meter.total_queries == 30 * 6
