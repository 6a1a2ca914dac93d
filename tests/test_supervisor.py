"""Tests for the checkpoint store, and for a raising name's dead letter.

The checkpoint half covers the frame validation (torn, bad magic,
checksum mismatch), rotation, recovery past corrupt files, and
full-scenario resume.  A name whose sample raises costs that one name:
it reaches the engine's dead letters through the executor and the
monitor-sweep stage, and the run goes on.
"""

import os
import pickle
from datetime import datetime

import pytest

from repro.core import monitoring
from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.core.export import dataset_to_json
from repro.parallel import shard as shard_module
from repro.pipeline.engine import Checkpoint
from repro.pipeline.store import (
    CheckpointCorruptError,
    CheckpointStore,
    atomic_write_bytes,
    decode_checkpoint,
    encode_checkpoint,
)

T0 = datetime(2020, 1, 6)


def test_poison_quarantine_survives_executor_and_stage(monkeypatch):
    # Hostile bytes can make a sample raise.  That name is dead-lettered
    # once per sweep as "sample raised: ..."; the week goes on.
    config = ScenarioConfig.tiny()
    config.weeks = 4
    engine = build_scenario(config)
    engine.run(max_weeks=2)
    result = engine.payload
    # Every name stands after two sweeps, so poison one that the next
    # sweep samples as its soundness check.
    ledger = result.monitor.touch_ledger
    slot = len(ledger.sweeps) % monitoring.SELFCHECK_SLOTS
    poison = next(
        fqdn for fqdn in result.collector.monitored_sorted
        if ledger.get(fqdn) is not None and monitoring.selfcheck_slot(fqdn) == slot
    )
    real_sample = shard_module._sample_fused

    def sample(monitor, fqdn, *args):
        if fqdn == poison:
            raise ValueError("hostile bytes")
        return real_sample(monitor, fqdn, *args)

    monkeypatch.setattr(shard_module, "_sample_fused", sample)
    samples = result.monitor.samples_taken
    engine.run(max_weeks=1)
    quarantined = [r for r in engine.dead_letters if r.item == poison]
    assert [r.reason for r in quarantined] == [
        "sample raised: ValueError: hostile bytes"
    ]
    # Every other name was still sampled, once.
    monitored = result.collector.monitored_count()
    assert result.monitor.samples_taken - samples == monitored - 1


# -- checkpoint frame ------------------------------------------------------


def _checkpoint(week=3):
    return Checkpoint(week_index=week, at=T0, blob=b"engine-state-" * 64)


def test_checkpoint_frame_roundtrips():
    ckpt = _checkpoint()
    assert decode_checkpoint(encode_checkpoint(ckpt)) == ckpt


def test_checkpoint_frame_rejects_torn_and_corrupt_data():
    data = encode_checkpoint(_checkpoint())
    with pytest.raises(CheckpointCorruptError, match="torn header"):
        decode_checkpoint(data[:10])
    with pytest.raises(CheckpointCorruptError, match="bad magic"):
        decode_checkpoint(b"XXXX" + data[4:])
    with pytest.raises(CheckpointCorruptError, match="torn payload"):
        decode_checkpoint(data[:-7])
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
        decode_checkpoint(bytes(flipped))


def test_checkpoint_frame_rejects_wrong_payload_type():
    import hashlib
    import struct

    payload = pickle.dumps({"not": "a checkpoint"}, protocol=pickle.HIGHEST_PROTOCOL)
    framed = (
        struct.pack("<4sHQ", b"RCKP", 1, len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )
    with pytest.raises(CheckpointCorruptError, match="not Checkpoint"):
        decode_checkpoint(framed)


# -- checkpoint store ------------------------------------------------------


def test_store_save_load_latest_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load_latest() is None
    assert store.last_recovery.loaded is None
    store.save(_checkpoint(week=1))
    store.save(_checkpoint(week=2))
    loaded = store.load_latest()
    assert loaded.week_index == 2
    assert store.last_recovery.loaded is not None
    assert store.last_recovery.skipped == []


def test_store_rotates_to_keep_last_n(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for week in range(5):
        store.save(_checkpoint(week=week))
    paths = store.paths()
    assert len(paths) == 2
    # Sequence numbers keep increasing across rotation.
    assert [os.path.basename(p)[:11] for p in paths] == ["ckpt-000003", "ckpt-000004"]
    assert store.load_latest().week_index == 4


def test_store_recovery_skips_torn_and_corrupt_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(_checkpoint(week=1))
    good = store.save(_checkpoint(week=2))
    torn = store.save(_checkpoint(week=3))
    with open(torn, "r+b") as handle:
        handle.truncate(os.path.getsize(torn) // 2)
    loaded = store.load_latest()
    assert loaded.week_index == 2
    report = store.last_recovery
    assert report.loaded == os.path.basename(good)
    assert [name for name, _ in report.skipped] == [os.path.basename(torn)]
    assert "torn payload" in report.skipped[0][1]
    # Corrupt files are evidence, not garbage: never deleted.
    assert os.path.exists(torn)


def test_store_recovery_reports_every_reason(tmp_path):
    store = CheckpointStore(tmp_path, keep=4)
    store.save(_checkpoint(week=1))
    bad_magic = store.save(_checkpoint(week=2))
    data = open(bad_magic, "rb").read()
    atomic_write_bytes(bad_magic, b"JUNK" + data[4:])
    empty = os.path.join(store.directory, "ckpt-999998-w0009.ckpt")
    open(empty, "wb").close()
    assert store.load_latest().week_index == 1
    reasons = dict(store.last_recovery.skipped)
    assert "bad magic" in reasons[os.path.basename(bad_magic)]
    assert "torn header" in reasons[os.path.basename(empty)]


def test_atomic_write_failure_leaves_target_and_no_tmp_litter(tmp_path, monkeypatch):
    target = tmp_path / "dataset.json"
    target.write_text("precious")
    # Temp file cannot even be created (parent directory gone).
    with pytest.raises(OSError):
        atomic_write_bytes(str(tmp_path / "nope" / "dataset.json"), b"x")
    # Crash between the temp write and the rename: the old target stays
    # whole and the temp file is cleaned up.
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (_ for _ in ()).throw(OSError("simulated crash at rename")),
    )
    with pytest.raises(OSError, match="simulated crash"):
        atomic_write_bytes(str(target), b"half-written")
    monkeypatch.undo()
    assert target.read_text() == "precious"
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.json"]


# -- full-scenario resume --------------------------------------------------


def test_resume_requires_a_store():
    with pytest.raises(ValueError, match="checkpoint_store"):
        run_scenario(ScenarioConfig.tiny(), resume=True)


def test_interrupted_run_resumes_past_corrupt_newest_checkpoint(tmp_path):
    config = ScenarioConfig.tiny()
    config.weeks = 6
    full = run_scenario(config)
    golden = dataset_to_json(full.dataset, indent=2)

    store = CheckpointStore(tmp_path)
    config2 = ScenarioConfig.tiny()
    config2.weeks = 6
    engine = build_scenario(config2)
    engine.run(max_weeks=4, checkpoint_every=2, on_checkpoint=store.save)
    newest = store.paths()[-1]
    with open(newest, "r+b") as handle:
        handle.truncate(os.path.getsize(newest) // 3)

    resumed = run_scenario(None, checkpoint_store=store, resume=True)
    assert resumed.weeks_run == 6
    report = store.last_recovery
    assert report.loaded is not None
    assert [name for name, _ in report.skipped] == [os.path.basename(newest)]
    assert dataset_to_json(resumed.dataset, indent=2) == golden
