"""The shared-memory transport: exactness, order, space, failure modes.

The first half drives two :class:`~repro.backend.transport.Endpoint`
objects of one :class:`Fabric` from a single thread -- the pipes and the
arena are real, no process is forked -- so hypothesis can afford many
payload trees.  The second half runs real ranks under ``fork`` and
``spawn``: the symmetric large exchange, read-only dispatch, and the
fail-fast paths for work that cannot be pickled.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import (
    BackendError,
    ProcessBackend,
    WorkerFailedError,
    backend_solve,
    cross_validate,
    hpcg_cross_validate,
    process_backend_support,
)
from repro.backend import transport
from repro.backend.transport import Fabric
from repro.machine.events import Recv, Send
from repro.service import WarmPool
from repro.sparse import poisson2d

_OK, _DETAIL = process_backend_support()
pytestmark = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)
START_METHODS = [m for m in ("fork", "spawn")
                 if m in mp.get_all_start_methods()]

#: a ring small enough that a handful of messages wraps and fills it
SMALL_RING = 4 * transport.SHM_THRESHOLD
WORD = 8
AT_THRESHOLD = transport.SHM_THRESHOLD // WORD


@pytest.fixture
def pair(monkeypatch):
    """Endpoints 0 and 1 of a two-rank fabric with small rings."""
    monkeypatch.setattr(transport, "RING_BYTES", SMALL_RING)
    fabric = Fabric(mp.get_context(), 2)
    try:
        yield fabric, fabric.endpoint(0), fabric.endpoint(1)
    finally:
        fabric.close()


def deliver(sender, receiver, count):
    """Pump both sides from one thread until ``count`` messages arrived."""
    got = []
    deadline = time.monotonic() + 30.0
    while len(got) < count:
        assert time.monotonic() < deadline, "transport stalled"
        sender.drain(0.001)
        item = receiver.recv(0.001)
        if item is not None:
            got.append(item)
    return got


def same(a, b):
    """Exact equality of payload trees, arrays compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


# ------------------------------------------------------------------ #
# payload trees
# ------------------------------------------------------------------ #
#: zero-size, tiny, one word either side of the threshold, more than a
#: whole (small) ring
LENGTHS = st.sampled_from([0, 1, 7, AT_THRESHOLD - 1, AT_THRESHOLD,
                           AT_THRESHOLD + 1, 3 * AT_THRESHOLD,
                           SMALL_RING // WORD + 5])


@st.composite
def arrays(draw):
    n = draw(LENGTHS)
    kind = draw(st.sampled_from(["f8", "i8", "strided", "matrix_t"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "i8":
        return rng.integers(-2**62, 2**62, size=n, dtype=np.int64)
    if kind == "strided":
        return rng.standard_normal(2 * n)[::2]  # non-contiguous
    if kind == "matrix_t":
        return rng.standard_normal((2, n)).T  # Fortran order
    return rng.standard_normal(n)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True), st.text(max_size=5),
    st.builds(np.float64, st.floats(allow_nan=False)),
)
TREES = st.recursive(
    st.one_of(SCALARS, arrays()),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.integers(0, 5), kids, max_size=3),
    ),
    max_leaves=6,
)


@given(st.lists(st.tuples(st.integers(0, 2), TREES), min_size=1, max_size=8))
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large])
def test_round_trip_is_exact_and_fifo_per_tag(pair, messages):
    """Whatever mix of pipe and ring a batch takes, it arrives unchanged.

    All sends are posted before the first receive: rings fill up, later
    buffers fall back to the pipe, the pipe refuses bytes -- and still
    every ``(source, tag)`` stream comes out in the order it went in.
    """
    _, a, b = pair
    for tag, payload in messages:
        a.send(1, tag, payload)
    got = deliver(a, b, len(messages))
    assert all(src == 0 for src, _, _ in got)
    for tag in {t for t, _ in messages}:
        sent = [p for t, p in messages if t == tag]
        received = [p for _, t, p in got if t == tag]
        assert len(sent) == len(received)
        assert all(same(s, r) for s, r in zip(sent, received))
    ring = a._out[1].ring
    assert ring._released() == ring._head  # every byte placed was released


def test_ring_wraps_around(pair):
    """With one message always outstanding the ring runs through its end."""
    _, a, b = pair
    ring = a._out[1].ring
    block = 3 * AT_THRESHOLD // 2  # 1.5 thresholds: the 3rd straddles the end
    blocks = [np.full(block, float(i)) for i in range(12)]
    a.send(1, 0, blocks[0])
    for i in range(1, len(blocks)):
        a.send(1, 0, blocks[i])
        assert same(deliver(a, b, 1)[0][2], blocks[i - 1])
    assert same(deliver(a, b, 1)[0][2], blocks[-1])
    assert ring._head > 2 * SMALL_RING  # went round more than twice
    assert ring._head >= len(blocks) * block * WORD  # nothing rode the pipe


def test_full_ring_falls_back_to_the_pipe(pair):
    """A send the ring cannot take goes inline; it neither blocks nor fails."""
    _, a, b = pair
    ring = a._out[1].ring
    blocks = [np.full(3 * AT_THRESHOLD // 2, float(i)) for i in range(4)]
    for blk in blocks:
        a.send(1, 5, blk)
    # two blocks fit the 4-threshold ring, the rest stayed in band
    assert ring._head == 2 * blocks[0].nbytes
    got = deliver(a, b, len(blocks))
    assert all(same(g[2], blk) for g, blk in zip(got, blocks))


def test_stale_job_frame_is_dropped_and_releases_its_ring_space(pair):
    _, a, b = pair
    ring = a._out[1].ring
    big = np.arange(2.0 * AT_THRESHOLD)
    a.begin(1)
    a.send(1, 0, big)
    assert ring._head > ring._released()
    b.begin(2)  # the receiver has moved on to the next job
    assert b.recv(0.05) is None
    assert ring._released() == ring._head
    a.begin(2)
    a.send(1, 0, big + 1.0)
    assert same(deliver(a, b, 1)[0], (0, 0, big + 1.0))


def test_received_arrays_are_private_and_writable(pair):
    _, a, b = pair
    big = np.arange(2.0 * AT_THRESHOLD)
    a.send(1, 0, [big, big[:3]])
    first, small = deliver(a, b, 1)[0][2]
    first += 1.0  # would fault on a view of the ring
    small += 1.0
    a.send(1, 0, big)
    assert same(deliver(a, b, 1)[0][2], big)


def test_short_vectors_arrive_bit_for_bit(pair):
    """Short float64 vectors travel as float lists and come back exact."""
    _, a, b = pair
    edge = np.array([np.nan, -0.0, 5e-324, -np.inf, 1.0 + 2**-52])
    n = transport.SMALL_VECTOR
    sent = [edge, np.zeros(0), np.arange(float(n)), np.arange(n + 1.0),
            np.arange(4.0).astype(">f8"), np.arange(8.0)[::2]]
    for payload in sent:
        a.send(1, 5, payload)
    got = [p for _, _, p in deliver(a, b, len(sent))]
    for s, r in zip(sent, got):
        assert r.dtype == s.dtype and r.tobytes() == s.tobytes()
        r += 1.0  # private and writable


# ------------------------------------------------------------------ #
# real ranks
# ------------------------------------------------------------------ #
class SymmetricExchange:
    """Both ranks send first and receive second."""

    def __init__(self, words):
        self.words = words

    def __call__(self, rank, size):
        mine = np.full(self.words, float(rank))
        yield Send(dest=1 - rank, payload=mine, tag=3)
        theirs = yield Recv(source=1 - rank, tag=3)
        return float(theirs[0]), float(theirs[-1]), int(theirs.size)


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("mib", [4, 6])  # a ring holds 4 MiB; 6 rides pipes
def test_symmetric_large_exchange_does_not_deadlock(start_method, mib):
    words = mib * (1 << 20) // WORD
    run = ProcessBackend(start_method=start_method, timeout=60.0).run(
        SymmetricExchange(words), nprocs=2)
    assert run.results == [(1.0, 1.0, words), (0.0, 0.0, words)]


class AllToAllStorm:
    """Every rank floods every other before anyone receives.

    More ranks than cores, rings that fill, pipes that refuse bytes: each
    message still arrives once, intact, in per-source order.
    """

    SIZES = (1, 1500, 3000, 40000)  # words: pipe, ring, ring, ring
    ROUNDS = 15

    def __call__(self, rank, size):
        peers = [r for r in range(size) if r != rank]
        for i in range(self.ROUNDS * len(self.SIZES)):
            for dest in peers:
                words = self.SIZES[i % len(self.SIZES)]
                yield Send(dest=dest, tag=7,
                           payload=np.full(words, 1000.0 * rank + i))
        bad = 0
        for src in peers:
            for i in range(self.ROUNDS * len(self.SIZES)):
                got = yield Recv(source=src, tag=7)
                words = self.SIZES[i % len(self.SIZES)]
                bad += not (got.size == words
                            and (got == 1000.0 * src + i).all())
        return bad


def test_flood_with_more_ranks_than_cores_loses_nothing():
    run = ProcessBackend(timeout=120.0).run(AllToAllStorm(), nprocs=4)
    assert run.results == [0, 0, 0, 0]
    assert run.stats.total_messages == 4 * 3 * 60


class OperatorProgram:
    """Holds one large and one small array; optionally scribbles on them."""

    def __init__(self, scribble=False):
        self.big = np.arange(4.0 * AT_THRESHOLD)
        self.small = np.arange(8.0)
        self.scribble = scribble

    def __call__(self, rank, size):
        if self.scribble and rank == 0:
            self.big[0] = -1.0
        yield Send(dest=1 - rank, payload=self.big[:2] * (rank + 1), tag=1)
        got = yield Recv(source=1 - rank, tag=1)
        return (bool(self.big.flags.writeable), float(self.big.sum()),
                float(got[1]))


@pytest.mark.parametrize("start_method", START_METHODS)
def test_dispatched_operator_is_a_read_only_view(start_method):
    total = float(np.arange(4.0 * AT_THRESHOLD).sum())
    with WarmPool(2, start_method=start_method, timeout=60.0) as pool:
        run = pool.run(OperatorProgram(), 2)
        assert run.results == [(False, total, 2.0), (False, total, 1.0)]
        # writing into the shared operator fails loudly in the writer and
        # cannot reach the peer's copy: there is only one copy
        with pytest.raises(WorkerFailedError, match="read-only"):
            pool.run(OperatorProgram(scribble=True), 2)
        run = pool.run(OperatorProgram(), 2)  # fresh generation, fresh arena
        assert run.results[1] == (False, total, 1.0)


def test_program_larger_than_the_dispatch_ring_rides_the_pipe(monkeypatch):
    """Too big for the arena means inline, never a rebuild or an error."""
    monkeypatch.setattr(transport, "DISPATCH_BYTES", 2 * transport.SHM_THRESHOLD)
    total = float(np.arange(4.0 * AT_THRESHOLD).sum())
    with WarmPool(2, start_method="fork", timeout=60.0) as pool:
        for _ in range(2):
            run = pool.run(OperatorProgram(), 2)
            # in-band arrays are private copies, hence writable
            assert run.results == [(True, total, 2.0), (True, total, 1.0)]
        assert pool.rebuilds == 1


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("pooled", [False, True], ids=["one_shot", "pool"])
def test_bitwise_parity_with_the_simulator(start_method, pooled):
    """Blocks above the threshold: the ring must not change a single bit."""
    A = poisson2d(64)  # 2048-word blocks = 16 KiB
    b = A.matvec(np.ones(A.nrows))
    be = (WarmPool(2, start_method=start_method, timeout=60.0) if pooled
          else ProcessBackend(start_method=start_method, timeout=60.0))
    try:
        assert cross_validate("cg", A, b, nprocs=2, process=be).bitwise_equal
        assert hpcg_cross_validate(16, nprocs=2, precond="mg",
                                   process=be).bitwise_equal
    finally:
        if pooled:
            be.shutdown()


class SendsALambda:
    def __call__(self, rank, size):
        if rank == 0:
            yield Send(dest=1, payload=[1.0, lambda: 0], tag=9)
        else:
            yield Recv(source=0, tag=9)
        return rank


class HoldsALambda:
    def __init__(self):
        self.hook = lambda: 0

    def __call__(self, rank, size):
        yield Send(dest=rank, payload=rank, tag=0)
        return (yield Recv(source=rank, tag=0))


class TestUnpicklableWorkFailsFast:
    def test_pool_program(self):
        with WarmPool(2, timeout=120.0) as pool:
            pool.heal()
            t0 = time.monotonic()
            with pytest.raises(BackendError, match="HoldsALambda") as err:
                pool.run(HoldsALambda(), 2)
            assert time.monotonic() - t0 < 5.0
            assert not isinstance(err.value, WorkerFailedError)
            # nothing was dispatched: the same generation serves the next job
            assert pool.run(SymmetricExchange(4), 2).results[0][2] == 4
            assert pool.rebuilds == 1

    @pytest.mark.skipif("spawn" not in START_METHODS, reason="no spawn")
    def test_one_shot_program_under_spawn(self):
        t0 = time.monotonic()
        with pytest.raises(BackendError, match="HoldsALambda"):
            ProcessBackend(start_method="spawn", timeout=120.0).run(
                HoldsALambda(), nprocs=2)
        assert time.monotonic() - t0 < 5.0
        assert mp.active_children() == []

    @pytest.mark.parametrize("backend", ["one_shot", "pool"])
    def test_send_payload_becomes_the_ranks_error_report(self, backend):
        be = (ProcessBackend(timeout=120.0) if backend == "one_shot"
              else WarmPool(2, timeout=120.0))
        t0 = time.monotonic()
        try:
            with pytest.raises(
                WorkerFailedError,
                match=r"rank 0 failed[\s\S]*cannot pickle the payload rank 0 "
                      r"sends to rank 1 \(tag 9\)",
            ):
                be.run(SendsALambda(), 2)
        finally:
            if backend == "pool":
                be.shutdown()
        assert time.monotonic() - t0 < 10.0


def test_rank_time_is_accounted_for():
    """compute + receive/barrier wait + send cover a rank's wall time."""
    A = poisson2d(24)
    be = ProcessBackend(timeout=60.0, trace=True)
    result = backend_solve("cg", A, np.ones(A.nrows), backend=be, nprocs=2)
    assert result.converged
    assert result.extras["timings"]["send"] > 0.0
    for rep in result.extras["per_rank"]:
        covered = rep["compute_time"] + rep["comm_time"] + rep["send_time"]
        assert covered >= 0.95 * rep["wall"]
        assert rep["send_time"] > 0.0
