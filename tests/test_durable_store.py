"""DurableCheckpointStore: dict parity, crash safety, corrupt-record skip.

The store must behave as a drop-in ``MutableMapping`` replacement for the
plain dict checkpoint store (hypothesis drives both through the same
operation sequences), and its on-disk journal must make
``latest_complete_checkpoint`` give a fresh process the same answer the
dead one had -- with torn and bit-flipped records skipped, never loaded.
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
from repro.backend.store import DurableCheckpointStore, _record_name
from repro.core.resilience import ResilienceConfig, latest_complete_checkpoint
from repro.sparse.generators import poisson2d, rhs_for_solution


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
    assert durable.tmp_files() == []


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
# crash safety: torn / corrupt / leftover-tmp records
# ---------------------------------------------------------------------- #
def test_truncated_record_skipped_on_load(tmp_path):
    root = str(tmp_path / "torn")
    _publish(DurableCheckpointStore(root, fsync=False), 0, range(4))
    _publish(DurableCheckpointStore(root, fsync=False), 5, range(4))
    victim = os.path.join(root, _record_name(5, 2))
    raw = open(victim, "rb").read()
    with open(victim, "wb") as fh:
        fh.write(raw[: len(raw) // 2])  # torn mid-payload

    store = DurableCheckpointStore(root, fsync=False)
    assert _record_name(5, 2) in store.skipped_records
    assert sorted(store[5]) == [0, 1, 3]
    # the newest *complete* checkpoint steps back past the torn one
    k, snaps = latest_complete_checkpoint(store, 4)
    assert k == 0 and sorted(snaps) == [0, 1, 2, 3]


def test_bitflipped_record_fails_crc_and_is_skipped(tmp_path):
    root = str(tmp_path / "flip")
    _publish(DurableCheckpointStore(root, fsync=False), 3, range(3))
    victim = os.path.join(root, _record_name(3, 1))
    raw = bytearray(open(victim, "rb").read())
    raw[-7] ^= 0x40  # flip one payload bit; header CRC now disagrees
    with open(victim, "wb") as fh:
        fh.write(bytes(raw))

    store = DurableCheckpointStore(root, fsync=False)
    assert _record_name(3, 1) in store.skipped_records
    assert sorted(store[3]) == [0, 2]
    assert latest_complete_checkpoint(store, 3) is None


def test_crc_collision_resistant_header(tmp_path):
    """A record whose CRC matches but whose length lies is rejected too."""
    root = str(tmp_path / "hdr")
    DurableCheckpointStore(root, fsync=False)
    body = pickle.dumps({"x": 1})
    header = struct.Struct("<qqQI").pack(0, 0, len(body) + 3, zlib.crc32(body))
    with open(os.path.join(root, _record_name(0, 0)), "wb") as fh:
        fh.write(b"RPCKPT1\n" + header + body)
    store = DurableCheckpointStore(root, fsync=False)
    assert _record_name(0, 0) in store.skipped_records
    assert len(store) == 0


def test_leftover_tmp_files_removed_on_open(tmp_path):
    root = str(tmp_path / "tmps")
    store = DurableCheckpointStore(root, fsync=False)
    _publish(store, 0, range(2))
    # simulate a SIGKILL between tmp write and rename
    stray = os.path.join(root, ".tmp-ckpt-00000007-00001.rec-999")
    with open(stray, "wb") as fh:
        fh.write(b"half a record")
    reopened = DurableCheckpointStore(root, fsync=False)
    assert reopened.tmp_files() == []
    assert not os.path.exists(stray)
    assert sorted(reopened[0]) == [0, 1]


def test_manifest_is_advisory_and_atomic(tmp_path):
    root = str(tmp_path / "man")
    store = DurableCheckpointStore(root, fsync=False)
    _publish(store, 0, range(3))
    import json

    manifest = json.load(open(os.path.join(root, "manifest.json")))
    assert manifest["iterations"] == {"0": [0, 1, 2]}
    # a record published after the manifest write (kill between the two)
    # still loads: completeness is judged record-by-record
    from repro.backend.store import _encode_record

    os.unlink(os.path.join(root, "manifest.json"))
    with open(os.path.join(root, _record_name(4, 0)), "wb") as fh:
        fh.write(_encode_record(4, 0, _snap(0, 4)))
    reopened = DurableCheckpointStore(root, fsync=False)
    assert sorted(reopened) == [0, 4]
    assert sorted(reopened[4]) == [0]


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
    assert fresh.tmp_files() == []


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
