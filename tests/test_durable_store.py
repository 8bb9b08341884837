"""DurableCheckpointStore: dict parity, crash safety, corrupt-record skip.

The store must behave as a drop-in ``MutableMapping`` replacement for the
plain dict checkpoint store (hypothesis drives both through the same
operation sequences), and its on-disk log must make
``latest_complete_checkpoint`` give a fresh process the same answer the
dead one had -- with torn, bit-flipped and spoofed frames skipped, never
loaded.
"""

import os
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.solve import backend_solve
from repro.backend.store import DurableCheckpointStore
from repro.core.resilience import ResilienceConfig, latest_complete_checkpoint
from repro.sparse.generators import poisson2d, rhs_for_solution

_MAGIC = b"RPCKPT1\n"
_LOG = "checkpoints.log"


def _materialize(store):
    return {k: dict(store[k]) for k in store}


def _snap(rank, k, size=5):
    """A checkpoint-shaped payload: arrays + scalars + lists."""
    return {
        "k": k,
        "x": np.arange(size, dtype=float) + rank,
        "r": np.full(size, float(rank)),
        "gamma": 1.25 * (rank + 1),
        "residuals": [1.0, 0.5, 0.25],
    }


def _publish(store, iteration, ranks, size=5):
    """Publish the way both substrates do: live setdefault view."""
    view = store.setdefault(iteration, {})
    for rank in ranks:
        view[rank] = _snap(rank, iteration, size)


# ---------------------------------------------------------------------- #
# dict drop-in parity
# ---------------------------------------------------------------------- #
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 6), st.integers(0, 3)),
        st.tuples(st.just("del"), st.integers(0, 6), st.just(0)),
        st.tuples(st.just("clear"), st.just(0), st.just(0)),
        st.tuples(st.just("assign"), st.integers(0, 6), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=_OPS)
def test_roundtrip_matches_dict_store(tmp_path, ops):
    """Same op sequence, same observable state as the plain dict store --
    both live and after a reopen of the directory."""
    root = tmp_path / f"s{abs(hash(tuple(ops))) % 10_000_000}"
    durable = DurableCheckpointStore(str(root), fsync=False)
    plain = {}
    for op, iteration, rank in ops:
        if op == "put":
            durable.setdefault(iteration, {})[rank] = _snap(rank, iteration)
            plain.setdefault(iteration, {})[rank] = _snap(rank, iteration)
        elif op == "del":
            if iteration in plain:
                del plain[iteration]
                del durable[iteration]
        elif op == "clear":
            plain.clear()
            durable.clear()
        else:  # assign a whole iteration at once
            snaps = {r: _snap(r, iteration) for r in range(rank + 1)}
            durable[iteration] = snaps
            plain[iteration] = dict(snaps)

    def same(a, b):
        assert sorted(a) == sorted(b)
        for k in a:
            assert sorted(a[k]) == sorted(b[k])
            for r in a[k]:
                sa, sb = a[k][r], b[k][r]
                assert sa["k"] == sb["k"]
                np.testing.assert_array_equal(sa["x"], sb["x"])
                assert sa["gamma"] == sb["gamma"]

    same(_materialize(durable), plain)
    # a fresh process re-opening the directory sees the identical state
    reopened = DurableCheckpointStore(str(root), fsync=False)
    same(_materialize(reopened), plain)
    assert reopened.skipped_records == []
    assert set(os.listdir(root)) <= {_LOG}


def test_latest_complete_matches_dict_semantics(tmp_path):
    for make in (dict, lambda: DurableCheckpointStore(
            str(tmp_path / "sem"), fsync=False)):
        store = make()
        _publish(store, 0, range(4))
        _publish(store, 10, range(4))
        _publish(store, 20, range(2))  # partial: crash mid-checkpoint
        k, snaps = latest_complete_checkpoint(store, 4)
        assert k == 10
        assert sorted(snaps) == [0, 1, 2, 3]
        # materialised: survives a clear of the underlying store
        store.clear()
        assert sorted(snaps) == [0, 1, 2, 3]
        assert snaps[2]["k"] == 10


# ---------------------------------------------------------------------- #
# crash safety: torn / corrupt / spoofed frames in the log
# ---------------------------------------------------------------------- #
def _log_size(root):
    return os.path.getsize(os.path.join(root, _LOG))


def _frame(edit, length_delta=0):
    """One log frame holding ``edit``, written the way the store does."""
    body = pickle.dumps(edit, protocol=pickle.HIGHEST_PROTOCOL)
    return (_MAGIC + struct.pack("<QI", len(body) + length_delta,
                                 zlib.crc32(body)) + body)


def _flip(root, offset):
    with open(os.path.join(root, _LOG), "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x40]))


def test_truncated_record_skipped_on_load(tmp_path):
    root = str(tmp_path / "torn")
    _publish(DurableCheckpointStore(root, fsync=False), 0, range(4))
    store = DurableCheckpointStore(root, fsync=False)
    _publish(store, 5, range(3))
    tail = _log_size(root)
    _publish(store, 5, [3])
    with open(os.path.join(root, _LOG), "r+b") as fh:
        fh.truncate((tail + _log_size(root)) // 2)  # torn mid-frame

    store = DurableCheckpointStore(root, fsync=False)
    assert store.skipped_records == [tail]
    assert sorted(store[5]) == [0, 1, 2]
    # the newest *complete* checkpoint steps back past the torn one
    k, snaps = latest_complete_checkpoint(store, 4)
    assert k == 0 and sorted(snaps) == [0, 1, 2, 3]
    # the next append truncates the torn bytes, and it replays
    _publish(store, 5, [3])
    reopened = DurableCheckpointStore(root, fsync=False)
    assert reopened.skipped_records == []
    assert latest_complete_checkpoint(reopened, 4)[0] == 5


def test_bitflipped_record_fails_crc_and_is_skipped(tmp_path):
    root = str(tmp_path / "flip")
    store = DurableCheckpointStore(root, fsync=False)
    _publish(store, 3, [0])
    victim = _log_size(root)
    _publish(store, 3, [1])
    end = _log_size(root)
    _publish(store, 3, [2])
    _flip(root, end - 7)  # one payload bit; the frame's CRC now disagrees

    store = DurableCheckpointStore(root, fsync=False)
    assert store.skipped_records == [victim]
    assert sorted(store[3]) == [0, 2]
    assert latest_complete_checkpoint(store, 3) is None


def test_crc_collision_resistant_header(tmp_path):
    """A frame whose CRC matches its body but whose length lies is
    rejected too, and the frame after it still loads."""
    root = tmp_path / "hdr"
    root.mkdir()
    with open(root / _LOG, "wb") as fh:
        fh.write(_frame(("put", 0, 0, {"x": 1}), length_delta=3))
        fh.write(_frame(("put", 0, 1, {"x": 2})))
    store = DurableCheckpointStore(str(root), fsync=False)
    assert store.skipped_records == [0]
    assert dict(store[0]) == {1: {"x": 2}}


def test_payload_holding_the_magic_neither_splits_nor_fakes(tmp_path):
    root = str(tmp_path / "magic")
    fake = _MAGIC + struct.pack("<QI", 5, 0) + b"fake!"
    store = DurableCheckpointStore(root, fsync=False)
    store.setdefault(0, {})[0] = {"blob": fake * 3}
    store.setdefault(0, {})[1] = {"blob": fake}
    reopened = DurableCheckpointStore(root, fsync=False)
    assert reopened.skipped_records == []
    assert dict(reopened[0]) == {0: {"blob": fake * 3}, 1: {"blob": fake}}
    # with the first frame's CRC broken, the scan for the next frame
    # meets the magic inside its payload and must not take it for one
    _flip(root, len(_MAGIC) + 8)
    damaged = DurableCheckpointStore(root, fsync=False)
    assert damaged.skipped_records == [0]
    assert dict(damaged[0]) == {1: {"blob": fake}}


def test_per_record_directory_is_refused(tmp_path):
    root = tmp_path / "legacy"
    root.mkdir()
    (root / "manifest.json").write_text("{}")
    (root / "ckpt-00000005-00002.rec").write_bytes(b"RPCKPT1\n")
    with pytest.raises(ValueError, match="ckpt-00000005-00002.rec"):
        DurableCheckpointStore(str(root), fsync=False)


def test_every_edit_is_one_frame_of_one_log(tmp_path):
    """Deletes and clears are tombstones in the same log, so a directory
    holds the log and nothing else, whatever the edits were."""
    root = str(tmp_path / "one")
    store = DurableCheckpointStore(root, fsync=False)
    sizes = [0]
    for edit in (
        lambda: _publish(store, 0, [0]),
        lambda: store.setdefault(1, {0: _snap(0, 1), 1: _snap(1, 1)}),
        lambda: store.__setitem__(1, {2: _snap(2, 1)}),
        lambda: store[0].__delitem__(0),
        lambda: store.__delitem__(1),
        store.clear,
    ):
        edit()
        sizes.append(_log_size(root))
    with open(os.path.join(root, _LOG), "rb") as fh:
        raw = fh.read()
    assert raw.count(_MAGIC) == len(sizes) - 1
    assert all(raw.startswith(_MAGIC, at) for at in sizes[:-1])
    assert os.listdir(root) == [_LOG]
    assert len(DurableCheckpointStore(root, fsync=False)) == 0


# ---------------------------------------------------------------------- #
# driver-restart semantics
# ---------------------------------------------------------------------- #
def test_latest_complete_survives_driver_restart(tmp_path):
    """A fresh store on the same directory recovers exactly the newest
    complete checkpoint the 'killed' driver published."""
    root = str(tmp_path / "restart")
    first = DurableCheckpointStore(root, fsync=False)
    _publish(first, 0, range(4))
    _publish(first, 5, range(4))
    _publish(first, 10, [0, 3])  # interrupted mid-checkpoint
    del first  # the driver dies; nothing flushed beyond published records

    fresh = DurableCheckpointStore(root, fsync=False)
    k, snaps = latest_complete_checkpoint(fresh, 4)
    assert k == 5
    np.testing.assert_array_equal(snaps[1]["x"], _snap(1, 5)["x"])
    assert os.listdir(root) == [_LOG]


def test_live_view_publishes_immediately(tmp_path):
    """The setdefault view journals each rank the moment it is assigned --
    the property the in-flight checkpoint protocol relies on."""
    root = str(tmp_path / "live")
    store = DurableCheckpointStore(root, fsync=False)
    view = store.setdefault(7, {})
    view[0] = _snap(0, 7)
    # another process opening the dir NOW already sees rank 0's record
    other = DurableCheckpointStore(root, fsync=False)
    assert sorted(other[7]) == [0]
    view[1] = _snap(1, 7)
    assert sorted(DurableCheckpointStore(root, fsync=False)[7]) == [0, 1]


@pytest.mark.parametrize("first_fused", [False, True])
def test_checkpoint_of_other_recurrence_is_refused_by_name(
        tmp_path, first_fused):
    """A durable directory outlives the flags of the run that wrote it.
    Resuming a classic checkpoint with ``fused=True`` (or the reverse)
    used to die with a bare ``KeyError: 's'``; it must be a ValueError
    naming the writer, the reader and the missing keys."""
    A = poisson2d(8)
    b = rhs_for_solution(A, np.ones(A.nrows))
    root = str(tmp_path / "ckpt")

    def solve(fused, store):
        return backend_solve(
            "cg", A, b, nprocs=4, fused=fused, store=store,
            resilience=ResilienceConfig(checkpoint_interval=5))

    assert solve(first_fused, DurableCheckpointStore(root)).converged
    wrote, reads = (("fused", "classic") if first_fused
                    else ("classic", "fused"))
    with pytest.raises(ValueError) as err:
        solve(not first_fused, DurableCheckpointStore(root))  # reopened
    message = str(err.value)
    assert f"written by the {wrote}" in message
    assert f"resume the {reads}" in message
    assert ("'rho'" if first_fused else "'s'") in message
    # the matching recurrence still resumes from the same directory
    again = solve(first_fused, DurableCheckpointStore(root))
    assert again.converged
    assert again.extras["resilience"]["restarted_from"] is not None
