"""Crash at every record boundary: the journal and the store replay a prefix.

One scripted sequence of job-journal events and checkpoint-store edits
runs against a live directory that both share, and the directory is
copied after every operation.  For every prefix k, a fresh
:class:`JobJournal` and :class:`DurableCheckpointStore` reopening copy k
must fold to a plain-dict model of the first k operations.

Between copies k and k+1 the test also builds the torn states a crash in
the middle of operation k+1 can leave: every file that operation created
or appended to is cut after 1 byte, half, and all but one byte of what it
added, with every other file as in copy k.  Such a state must fold to
prefix k, and redoing operation k+1 on it must replay as prefix k+1.

Only the public fold and the bytes of whatever files the directory holds
are read, so the test does not depend on the on-disk layout.
"""

import os
import shutil
from types import SimpleNamespace

import pytest

from repro.backend.store import DurableCheckpointStore
from repro.service.journal import JobJournal


def _spec(tenant, n):
    return SimpleNamespace(tenant=tenant, n=n)


def _snap(iteration, rank, version):
    return {"k": iteration, "rank": rank, "v": version,
            "x": [float(iteration + rank + version + i) for i in range(12)]}


#: (target, operation, arguments); journal events over several keys are
#: interleaved with every kind of store edit
SCRIPT = [
    ("journal", "accepted", ("a", _spec("t0", 1))),
    ("store", "put", (0, 0, _snap(0, 0, 0))),
    ("journal", "accepted", ("b", _spec("t1", 2))),
    ("store", "put", (0, 1, _snap(0, 1, 0))),
    ("journal", "dispatched", ("a",)),
    ("store", "setdefault", (5, {0: _snap(5, 0, 0), 1: _snap(5, 1, 0)})),
    ("journal", "attempt", ("a", 1, "worker_crashed", True)),
    ("store", "put", (5, 2, _snap(5, 2, 0))),
    ("journal", "dispatched", ("a",)),
    ("store", "assign", (5, {0: _snap(5, 0, 1), 3: _snap(5, 3, 1)})),
    ("journal", "completed", ("a", {"x": [1.0, 2.0]})),
    ("journal", "accepted", ("c", _spec("t0", 3))),
    ("store", "put", (10, 0, _snap(10, 0, 0))),
    ("journal", "dispatched", ("b",)),
    ("store", "put", (10, 1, _snap(10, 1, 0))),
    ("journal", "failed", ("b", "diverged")),
    ("store", "del", (0,)),
    ("journal", "dispatched", ("c",)),
    ("journal", "dispatched", ("c",)),
    ("store", "put", (10, 0, _snap(10, 0, 1))),
    ("journal", "quarantined", ("c", None)),
    ("store", "clear", ()),
    ("journal", "accepted", ("d", _spec("t1", 4))),
    ("store", "put", (20, 0, _snap(20, 0, 0))),
    ("store", "assign", (21, {1: _snap(21, 1, 0)})),
    ("journal", "dispatched", ("d",)),
]


def _apply(journal, store, op):
    target, name, args = op
    if target == "journal":
        getattr(journal, name)(*args)
    elif name == "put":
        iteration, rank, payload = args
        store.setdefault(iteration, {})[rank] = payload
    elif name == "setdefault":
        store.setdefault(*args)
    elif name == "assign":
        store[args[0]] = args[1]
    elif name == "del":
        del store[args[0]]
    else:
        store.clear()


def _model(ops):
    """What the first ops mean, folded with plain dicts."""
    jobs, order, ckpt = {}, [], {}
    for target, name, args in ops:
        if target == "store":
            if name == "put":
                ckpt.setdefault(args[0], {})[args[1]] = args[2]
            elif name == "setdefault":
                ckpt.setdefault(args[0], dict(args[1]))
            elif name == "assign":
                ckpt[args[0]] = dict(args[1])
            elif name == "del":
                del ckpt[args[0]]
            else:
                ckpt.clear()
            continue
        key = args[0]
        job = jobs.setdefault(key, {
            "tenant": "default", "spec": None, "dispatches": 0,
            "attempts": [], "terminal": None, "result": None,
            "condemnations": 0, "open": False})
        if name == "accepted":
            order.append(key)
            job.update(spec=args[1], tenant=args[1].tenant)
        elif name == "dispatched":
            job["condemnations"] += job["open"]
            job["dispatches"] += 1
            job["open"] = True
        elif name == "attempt":
            job["attempts"].append(
                {"attempt": args[1], "outcome": args[2],
                 "condemned": args[3]})
            job["condemnations"] += args[3]
            job["open"] = False
        else:
            job.update(terminal=name, result=args[1], open=False)
    for job in jobs.values():  # a dispatch still open: the driver died
        job["condemnations"] += job.pop("open") and job["terminal"] is None
    return len([op for op in ops if op[0] == "journal"]), order, jobs, ckpt


def _fold(path):
    journal = JobJournal(path, fsync=False)
    store = DurableCheckpointStore(path, fsync=False)
    jobs = {
        s.key: {"tenant": s.tenant, "spec": s.spec,
                "dispatches": s.dispatches, "attempts": s.attempts,
                "terminal": s.terminal, "result": s.result,
                "condemnations": s.condemnations}
        for s in journal.states()
    }
    order = [s.key for s in journal.states()]
    return len(journal), order, jobs, {k: dict(store[k]) for k in store}


def _same(folded, model):
    records, order, jobs, ckpt = folded
    # an iteration with no rank holds no checkpoint; it is not durable
    ckpt = {k: v for k, v in ckpt.items() if v}
    want = model[:3] + ({k: v for k, v in model[3].items() if v},)
    assert (records, order, jobs, ckpt) == want


def _files(path):
    out = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _torn_states(before, after):
    """(file, cut bytes) for each file the operation created or grew."""
    for name, data in sorted(after.items()):
        old = before.get(name, b"")
        added = len(data) - len(old)
        if added <= 0 or not data.startswith(old):
            continue  # untouched, shrunk or rewritten: nothing to tear
        for cut in sorted({1, added // 2, added - 1}):
            if 0 < cut < added:
                yield name, data[:len(old) + cut]


@pytest.fixture(scope="module")
def copies(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash-points")
    live = str(root / "live")
    journal = JobJournal(live, fsync=False)
    store = DurableCheckpointStore(live, fsync=False)
    paths = []
    for k in range(len(SCRIPT) + 1):
        if k:
            _apply(journal, store, SCRIPT[k - 1])
        paths.append(str(root / f"copy-{k}"))
        shutil.copytree(live, paths[-1])
    return root, paths


def test_every_prefix_replays_as_its_model(copies):
    _, paths = copies
    for k, path in enumerate(paths):
        _same(_fold(path), _model(SCRIPT[:k]))


def test_torn_write_replays_prefix_then_redo_replays_next(copies):
    root, paths = copies
    torn_states = 0
    for k in range(len(SCRIPT)):
        before, after = _files(paths[k]), _files(paths[k + 1])
        for i, (name, data) in enumerate(_torn_states(before, after)):
            torn = str(root / f"torn-{k}-{i}")
            shutil.copytree(paths[k], torn)
            with open(os.path.join(torn, name), "wb") as fh:
                fh.write(data)
            _same(_fold(torn), _model(SCRIPT[:k]))
            _apply(JobJournal(torn, fsync=False),
                   DurableCheckpointStore(torn, fsync=False), SCRIPT[k])
            _same(_fold(torn), _model(SCRIPT[:k + 1]))
            torn_states += 1
    # every operation that writes a byte produced torn states
    assert torn_states >= 2 * len(SCRIPT)
