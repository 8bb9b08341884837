"""Absolute goldens for the five rank-program classes (simulated backend).

Every other pin on these programs is *relative* (classic equals fused,
resilient equals plain, p=2 equals p=4 ...), so a drift that moved every
configuration the same way would pass them all.  This file pins literal
values instead.  Each case runs one program through
:class:`~repro.backend.counting.TagCountingProgram` on the simulated
backend and records

``(iterations, total_messages, total_words, total_flops,
repr(run.elapsed), per-tag Send tallies, resilience counters, digest)``

-- all platform-independent (modelled time, counted messages).  The
digest is ``sha256`` of ``x.tobytes()`` + the residual history (+ the
``alphas``/``betas``/``gammas`` trajectory for HPCG) and is recorded only
under ``reproducible=True``, where the exact superaccumulator dots make it
independent of the BLAS build.

How the values were produced: ``GOLDEN`` below is the verbatim output of
``PYTHONPATH=src python tests/test_rank_program_goldens.py``.  It was first
captured on commit ``31c01ac`` -- i.e. *before* the rank programs were
collapsed onto the shared CG kernel -- and committed ahead of that
refactor.  Do not regenerate it to make a failing case pass: a mismatch
means the op stream (message count, tag, payload size, charged flops or
their order) or the arithmetic of a program changed.

One deliberate re-pin since then, when every rank program took one
reduction rule (each ``Reducer.reduce`` call is one ``allreduce_vec``
tree; every reproducible dot charges the superaccumulator surcharge; an
audit's dot is charged once; unpreconditioned HPCG reduces 2 dots, not 3).
Only the count, time and tally columns moved -- messages, words, flops,
modelled time and per-tag Sends.  Every ``iterations``, resilience
counter and digest is still the ``31c01ac`` value.  Row-block messages,
words and tags did not move; reproducible row-block runs gained the
surcharge's flops.  HPCG lost its ``fused`` option (it always packs its
dots into one tree), but its keys keep both former spellings: a ``fused``
key runs its ``-`` twin's program, so each pair's rows are equal, and the
plain Jacobi and MG ``fused`` rows are still the ``31c01ac`` values.

Matrix: the five classes x {classic, fused} x p in {1, 2, 3, 4} (p=3
takes the non-power-of-two fold of the binomial trees, on a complete
network because the hypercube needs a power of two); plain classes x
{plain, reproducible}; resilient classes x {abft} x {reliable} with
reproducible on at even p; HPCG classes x {none, jacobi, mg} (resilient
mg at p in {2, 3} only).  On top: iteration-capped, nonzero-``x0``
and converged-at-0 runs, and per resilient class a restart from
``latest_complete_checkpoint`` and an audit rollback after a
``StateCorruption`` on ``r``.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.backend.counting import TagCountingProgram, tally_send_tags
from repro.backend.programs import (
    CGRankProgram,
    PCGRankProgram,
    ResilientCGProgram,
)
from repro.backend.simulated import SimulatedBackend
from repro.core.resilience import latest_complete_checkpoint
from repro.core.stopping import StoppingCriterion
from repro.hpcg.program import HPCGRankProgram, ResilientHPCGProgram
from repro.machine.faults import FaultPlan, StateCorruption
from repro.sparse.generators import (
    nas_cg_style,
    rhs_for_solution,
    stencil27,
)

CRIT = StoppingCriterion(rtol=1e-10, atol=0.0)
SHAPE = (6, 6, 6)
_SYSTEMS = {}


def _system(kind):
    """``(A, b)`` with exact solution all-ones; built once per session."""
    if kind not in _SYSTEMS:
        A = nas_cg_style(48) if kind == "rowblock" else stencil27(*SHAPE)
        _SYSTEMS[kind] = (A, rhs_for_solution(A, np.ones(A.nrows)))
    return _SYSTEMS[kind]


def _build(cls, fused=False, **kw):
    if cls in (HPCGRankProgram, ResilientHPCGProgram):
        # HPCG has one schedule; ``fused`` only spells the key
        A, b = _system("hpcg")
        return cls(A, b, SHAPE, criterion=CRIT, **kw)
    A, b = _system("rowblock")
    return cls(A, b, criterion=CRIT, fused=fused, **kw)


def _record(program, p, store=None):
    """Run ``program`` counted on the simulator; return the golden tuple."""
    topology = "hypercube" if p & (p - 1) == 0 else "complete"
    run = SimulatedBackend(topology=topology).run(
        TagCountingProgram(program), p, checkpoints=store
    )
    results = [res["result"] for res in run.results]
    first = results[0]
    extras = first[4] if len(first) > 4 else {}
    guard = extras.get("resilience", extras)
    counters = (
        (guard["rollbacks"], guard["audits"],
         guard["checkpoints_published"], guard["restarted_from"])
        if "rollbacks" in guard else None
    )
    digest = None
    if program.reproducible:
        h = hashlib.sha256()
        for res in results:
            h.update(np.ascontiguousarray(res[0]).tobytes())
        h.update(np.asarray(first[1], dtype=np.float64).tobytes())
        for key in ("alphas", "betas", "gammas"):
            if key in extras:
                h.update(np.asarray(extras[key], dtype=np.float64).tobytes())
        digest = h.hexdigest()[:16]
    return (
        first[3],
        run.stats.total_messages,
        run.stats.total_words,
        run.stats.total_flops,
        repr(run.elapsed),
        tuple(sorted(tally_send_tags(run.results).items())),
        counters,
        digest,
    )


def _tf(flag, name):
    return name if flag else "-"


_RUNS = {}


def _once(cid, run):
    """``(cid, thunk)``; a ``fused`` HPCG key shares its ``-`` twin's run."""
    key = cid.replace("/fused", "/-") if "HPCG" in cid else cid

    def thunk():
        if key not in _RUNS:
            _RUNS[key] = run()
        return _RUNS[key]
    return cid, thunk


def _cases():
    """Yield ``(case_id, thunk)``; the thunk returns the golden tuple."""
    ps = (1, 2, 3, 4)
    tf = (False, True)

    def case(cid, cls, p, **kw):
        return _once(cid, lambda: _record(_build(cls, **kw), p))

    for cls in (CGRankProgram, PCGRankProgram):
        for fused, p, repro in itertools.product(tf, ps, tf):
            yield case(
                f"{cls.__name__}/{_tf(fused, 'fused')}/p{p}/"
                f"{_tf(repro, 'repro')}",
                cls, p, fused=fused, reproducible=repro)
    # resilient programs: reproducible alternates with p, so both dot kinds
    # meet every abft x reliable x fusion (x precond) combination at two
    # rank counts without doubling the matrix
    for fused, p, abft, reliable in itertools.product(tf, ps, tf, tf):
        repro = p % 2 == 0
        yield case(
            f"ResilientCGProgram/{_tf(fused, 'fused')}/p{p}/"
            f"{_tf(abft, 'abft')}/{_tf(reliable, 'arq')}/"
            f"{_tf(repro, 'repro')}",
            ResilientCGProgram, p, fused=fused, abft=abft, reliable=reliable,
            reproducible=repro, checkpoint_interval=4, sanity_interval=3)
    for precond, fused, p, repro in itertools.product(
            ("none", "jacobi", "mg"), tf, ps, tf):
        yield case(
            f"HPCGRankProgram/{precond}/{_tf(fused, 'fused')}/p{p}/"
            f"{_tf(repro, 'repro')}",
            HPCGRankProgram, p, precond=precond, fused=fused,
            reproducible=repro)
    for precond, fused, p, abft, reliable in itertools.product(
            ("none", "jacobi", "mg"), tf, ps, tf, tf):
        if precond == "mg" and p in (1, 4):
            continue  # every rank runs the whole V-cycle: keep the file fast
        repro = p % 2 == 0
        yield case(
            f"ResilientHPCGProgram/{precond}/{_tf(fused, 'fused')}/p{p}/"
            f"{_tf(abft, 'abft')}/{_tf(reliable, 'arq')}/"
            f"{_tf(repro, 'repro')}",
            ResilientHPCGProgram, p, precond=precond, fused=fused, abft=abft,
            reliable=reliable, reproducible=repro, checkpoint_interval=4,
            sanity_interval=3)

    # edge paths: iteration cap, nonzero initial guess, converged at 0
    every = (
        (CGRankProgram, {}),
        (PCGRankProgram, {}),
        (ResilientCGProgram, {"checkpoint_interval": 2}),
        (HPCGRankProgram, {"precond": "jacobi"}),
        (ResilientHPCGProgram, {"precond": "jacobi",
                                "checkpoint_interval": 2}),
    )
    for (cls, kw), fused in itertools.product(every, tf):
        n = _system("hpcg" if "precond" in kw else "rowblock")[0].nrows
        name = f"{cls.__name__}/{_tf(fused, 'fused')}"
        yield case(f"{name}/maxiter5/p2", cls, 2, fused=fused,
                   reproducible=True, maxiter=5, **kw)
        yield case(f"{name}/x0/p3", cls, 3, fused=fused, reproducible=True,
                   x0=np.linspace(0.0, 2.0, n), **kw)
        yield case(f"{name}/solved-at-0/p2", cls, 2, fused=fused,
                   reproducible=True, x0=np.ones(n), **kw)

    # resilient-only paths: restart from a checkpoint, audit rollback
    guarded = (
        (ResilientCGProgram, {}),
        (ResilientHPCGProgram, {"precond": "jacobi"}),
        (ResilientHPCGProgram, {"precond": "mg"}),
    )
    for (cls, kw), fused in itertools.product(guarded, tf):
        name = "/".join(
            [cls.__name__] + list(kw.values()) + [_tf(fused, "fused")])
        cfg = dict(kw, fused=fused, reproducible=True, checkpoint_interval=2,
                   sanity_interval=3)

        def restart(cls=cls, cfg=cfg):
            store = {}
            _record(_build(cls, maxiter=5, **cfg), 4, store=store)
            program = _build(cls, **cfg)
            program.restart = latest_complete_checkpoint(store, 4)
            assert program.restart[0] == 4
            return _record(program, 4)

        def rollback(cls=cls, cfg=cfg):
            plan = FaultPlan(seed=3, state_corruptions=[
                StateCorruption(iteration=3, target="r", rank=1)])
            return _record(_build(cls, faults=plan, **cfg), 4)

        yield _once(f"{name}/restart/p4", restart)
        yield _once(f"{name}/rollback/p4", rollback)


GOLDEN = {
    'CGRankProgram/-/p1/-': (32, 0, 0.0, 35424.0, '3.5424000000000046e-05', (), None, None),
    'CGRankProgram/-/p1/repro': (32, 0, 0.0, 60768.0, '6.076800000000008e-05', (), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p2/-': (32, 196, 2436.0, 35424.0, '0.009842647999999982', ((3, 66), (4, 66), (7, 32), (8, 32)), None, None),
    'CGRankProgram/-/p2/repro': (32, 196, 11280.0, 60768.0, '0.00994376000000004', ((3, 66), (4, 66), (7, 32), (8, 32)), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p3/-': (32, 392, 4360.0, 35424.0, '0.014739131999999978', ((3, 132), (4, 132), (7, 64), (8, 64)), None, None),
    'CGRankProgram/-/p3/repro': (32, 392, 22048.0, 60768.0, '0.014880240000000121', ((3, 132), (4, 132), (7, 64), (8, 64)), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p4/-': (32, 588, 6540.0, 35424.0, '0.019654375999999946', ((3, 198), (4, 198), (7, 96), (8, 96)), None, None),
    'CGRankProgram/-/p4/repro': (32, 588, 33072.0, 60768.0, '0.01983759200000012', ((3, 198), (4, 198), (7, 96), (8, 96)), None, '3518286b02a9b15e'),
    'CGRankProgram/fused/p1/-': (32, 0, 0.0, 39120.0, '3.912000000000006e-05', (), None, None),
    'CGRankProgram/fused/p1/repro': (32, 0, 0.0, 64848.0, '6.484800000000001e-05', (), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p2/-': (32, 132, 2510.0, 39120.0, '0.0066452539999999885', ((3, 33), (4, 33), (7, 33), (8, 33)), None, None),
    'CGRankProgram/fused/p2/repro': (32, 132, 11488.0, 64848.0, '0.006747898000000005', ((3, 33), (4, 33), (7, 33), (8, 33)), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p3/-': (32, 264, 4492.0, 39120.0, '0.00994118599999997', ((3, 66), (4, 66), (7, 66), (8, 66)), None, None),
    'CGRankProgram/fused/p3/repro': (32, 264, 22448.0, 64848.0, '0.01008443200000001', ((3, 66), (4, 66), (7, 66), (8, 66)), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p4/-': (32, 396, 6738.0, 39120.0, '0.01325668', ((3, 99), (4, 99), (7, 99), (8, 99)), None, None),
    'CGRankProgram/fused/p4/repro': (32, 396, 33672.0, 64848.0, '0.013442672000000063', ((3, 99), (4, 99), (7, 99), (8, 99)), None, 'bc9abcb7f7a62081'),
    'PCGRankProgram/-/p1/-': (27, 0, 0.0, 33792.0, '3.3792000000000045e-05', (), None, None),
    'PCGRankProgram/-/p1/repro': (27, 0, 0.0, 65664.0, '6.5664e-05', (), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p2/-': (27, 220, 2110.0, 33792.0, '0.011038481999999983', ((3, 83), (4, 83), (7, 27), (8, 27)), None, None),
    'PCGRankProgram/-/p2/repro': (27, 220, 13232.0, 65664.0, '0.011165638000000063', ((3, 83), (4, 83), (7, 27), (8, 27)), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p3/-': (27, 440, 3788.0, 33792.0, '0.016535137999999967', ((3, 166), (4, 166), (7, 54), (8, 54)), None, None),
    'PCGRankProgram/-/p3/repro': (27, 440, 26032.0, 65664.0, '0.01671259200000015', ((3, 166), (4, 166), (7, 54), (8, 54)), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p4/-': (27, 660, 5682.0, 33792.0, '0.022047947999999942', ((3, 249), (4, 249), (7, 81), (8, 81)), None, None),
    'PCGRankProgram/-/p4/repro': (27, 660, 39048.0, 65664.0, '0.022278356000000166', ((3, 249), (4, 249), (7, 81), (8, 81)), None, '253a5c033496c18c'),
    'PCGRankProgram/fused/p1/-': (27, 0, 0.0, 37152.0, '3.7152000000000026e-05', (), None, None),
    'PCGRankProgram/fused/p1/repro': (27, 0, 0.0, 69792.0, '6.979199999999999e-05', (), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p2/-': (27, 112, 2186.0, 37152.0, '0.005640940000000009', ((3, 28), (4, 28), (7, 28), (8, 28)), None, None),
    'PCGRankProgram/fused/p2/repro': (27, 112, 13576.0, 69792.0, '0.0057711600000000035', ((3, 28), (4, 28), (7, 28), (8, 28)), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p3/-': (27, 224, 3924.0, 37152.0, '0.008437110000000008', ((3, 56), (4, 56), (7, 56), (8, 56)), None, None),
    'PCGRankProgram/fused/p3/repro': (27, 224, 26704.0, 69792.0, '0.00861883999999999', ((3, 56), (4, 56), (7, 56), (8, 56)), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p4/-': (27, 336, 5886.0, 37152.0, '0.011250208000000024', ((3, 84), (4, 84), (7, 84), (8, 84)), None, None),
    'PCGRankProgram/fused/p4/repro': (27, 336, 40056.0, 69792.0, '0.011486167999999998', ((3, 84), (4, 84), (7, 84), (8, 84)), None, '66ac571fa594455f'),
    'ResilientCGProgram/-/p1/-/-/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/-/arq/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/abft/-/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/abft/arq/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p2/-/-/repro': (32, 260, 14608.0, 79728.0, '0.013186808000000083', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/-/arq/repro': (32, 520, 15648.0, 79728.0, '0.02619548000000014', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 66), (1048580, 66), (1048583, 32), (1048584, 32), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/abft/-/repro': (32, 260, 34464.0, 79728.0, '0.013385368000000024', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/abft/arq/repro': (32, 520, 35504.0, 79728.0, '0.026394040000000063', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 66), (1048580, 66), (1048583, 32), (1048584, 32), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p3/-/-/-': (32, 520, 6472.0, 48240.0, '0.019556555999999968', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/-/arq/-': (32, 1040, 8552.0, 48240.0, '0.039095919999999805', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 132), (1048580, 132), (1048583, 64), (1048584, 64), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/abft/-/-': (32, 520, 7056.0, 48240.0, '0.019560936000000046', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/abft/arq/-': (32, 1040, 9136.0, 48240.0, '0.03910176000000003', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 132), (1048580, 132), (1048583, 64), (1048584, 64), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p4/-/-/repro': (32, 780, 42672.0, 79728.0, '0.02630729200000015', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/-/arq/repro': (32, 1560, 45792.0, 79728.0, '0.039321644000000155', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 198), (1048580, 198), (1048583, 96), (1048584, 96), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/abft/-/repro': (32, 780, 102240.0, 79728.0, '0.026704411999999924', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/abft/arq/repro': (32, 1560, 105360.0, 79728.0, '0.03971876399999988', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 198), (1048580, 198), (1048583, 96), (1048584, 96), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/fused/p1/-/-/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/-/arq/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/abft/-/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/abft/arq/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p2/-/-/repro': (32, 196, 14816.0, 84048.0, '0.00999106600000002', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/-/arq/repro': (32, 392, 15600.0, 84048.0, '0.01979714200000004', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 33), (1048580, 33), (1048583, 33), (1048584, 33), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/abft/-/repro': (32, 196, 35080.0, 84048.0, '0.010193706', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/abft/arq/repro': (32, 392, 35864.0, 84048.0, '0.019999782000000032', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 33), (1048580, 33), (1048583, 33), (1048584, 33), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p3/-/-/-': (32, 392, 6604.0, 52176.0, '0.014758689999999963', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/-/arq/-': (32, 784, 8172.0, 52176.0, '0.029494702000000126', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 66), (1048580, 66), (1048583, 66), (1048584, 66), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/abft/-/-': (32, 392, 7200.0, 52176.0, '0.014763159999999968', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/abft/arq/-': (32, 784, 8768.0, 52176.0, '0.029500662000000153', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 66), (1048580, 66), (1048583, 66), (1048584, 66), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p4/-/-/repro': (32, 588, 43272.0, 84048.0, '0.019912432000000067', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/-/arq/repro': (32, 1176, 45624.0, 84048.0, '0.029722918000000084', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 99), (1048580, 99), (1048583, 99), (1048584, 99), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/abft/-/repro': (32, 588, 104064.0, 84048.0, '0.020317712000000043', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/abft/arq/repro': (32, 1176, 106416.0, 84048.0, '0.030128198000000113', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 99), (1048580, 99), (1048583, 99), (1048584, 99), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'HPCGRankProgram/none/-/p1/-': (9, 0, 0.0, 105680.0, '0.00010567999999999998', (), None, None),
    'HPCGRankProgram/none/-/p1/repro': (9, 0, 0.0, 141968.0, '0.000141968', (), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p2/-': (9, 40, 762.0, 105680.0, '0.0015568600000000013', ((3, 10), (4, 10), (31, 20)), None, None),
    'HPCGRankProgram/none/-/p2/repro': (9, 40, 3576.0, 141968.0, '0.001603144000000001', ((3, 10), (4, 10), (31, 20)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p3/-': (9, 80, 1524.0, 105680.0, '0.002546470000000001', ((3, 20), (4, 20), (31, 40)), None, None),
    'HPCGRankProgram/none/-/p3/repro': (9, 80, 7152.0, 141968.0, '0.0026007760000000004', ((3, 20), (4, 20), (31, 40)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p4/-': (9, 180, 1806.0, 105680.0, '0.0035314599999999993', ((3, 30), (4, 30), (31, 120)), None, None),
    'HPCGRankProgram/none/-/p4/repro': (9, 180, 10248.0, 141968.0, '0.0035968119999999983', ((3, 30), (4, 30), (31, 120)), None, 'a549945d475862a1'),
    'HPCGRankProgram/none/fused/p1/-': (9, 0, 0.0, 105680.0, '0.00010567999999999998', (), None, None),
    'HPCGRankProgram/none/fused/p1/repro': (9, 0, 0.0, 141968.0, '0.000141968', (), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p2/-': (9, 40, 762.0, 105680.0, '0.0015568600000000013', ((3, 10), (4, 10), (31, 20)), None, None),
    'HPCGRankProgram/none/fused/p2/repro': (9, 40, 3576.0, 141968.0, '0.001603144000000001', ((3, 10), (4, 10), (31, 20)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p3/-': (9, 80, 1524.0, 105680.0, '0.002546470000000001', ((3, 20), (4, 20), (31, 40)), None, None),
    'HPCGRankProgram/none/fused/p3/repro': (9, 80, 7152.0, 141968.0, '0.0026007760000000004', ((3, 20), (4, 20), (31, 40)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p4/-': (9, 180, 1806.0, 105680.0, '0.0035314599999999993', ((3, 30), (4, 30), (31, 120)), None, None),
    'HPCGRankProgram/none/fused/p4/repro': (9, 180, 10248.0, 141968.0, '0.0035968119999999983', ((3, 30), (4, 30), (31, 120)), None, 'a549945d475862a1'),
    'HPCGRankProgram/jacobi/-/p1/-': (9, 0, 0.0, 112160.0, '0.00011215999999999997', (), None, None),
    'HPCGRankProgram/jacobi/-/p1/repro': (9, 0, 0.0, 165728.0, '0.000165728', (), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p2/-': (9, 40, 782.0, 112160.0, '0.0015603', ((3, 10), (4, 10), (31, 20)), None, None),
    'HPCGRankProgram/jacobi/-/p2/repro': (9, 40, 4936.0, 165728.0, '0.0016286240000000006', ((3, 10), (4, 10), (31, 20)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p3/-': (9, 80, 1564.0, 112160.0, '0.0025489299999999996', ((3, 20), (4, 20), (31, 40)), None, None),
    'HPCGRankProgram/jacobi/-/p3/repro': (9, 80, 9872.0, 165728.0, '0.0026290960000000018', ((3, 20), (4, 20), (31, 40)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p4/-': (9, 180, 1866.0, 112160.0, '0.0035334799999999977', ((3, 30), (4, 30), (31, 120)), None, None),
    'HPCGRankProgram/jacobi/-/p4/repro': (9, 180, 14328.0, 165728.0, '0.0036299520000000027', ((3, 30), (4, 30), (31, 120)), None, 'ebb03c0f56bada65'),
    'HPCGRankProgram/jacobi/fused/p1/-': (9, 0, 0.0, 112160.0, '0.00011215999999999997', (), None, None),
    'HPCGRankProgram/jacobi/fused/p1/repro': (9, 0, 0.0, 165728.0, '0.000165728', (), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/fused/p2/-': (9, 40, 782.0, 112160.0, '0.0015603', ((3, 10), (4, 10), (31, 20)), None, None),
    'HPCGRankProgram/jacobi/fused/p2/repro': (9, 40, 4936.0, 165728.0, '0.0016286240000000006', ((3, 10), (4, 10), (31, 20)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/fused/p3/-': (9, 80, 1564.0, 112160.0, '0.0025489299999999996', ((3, 20), (4, 20), (31, 40)), None, None),
    'HPCGRankProgram/jacobi/fused/p3/repro': (9, 80, 9872.0, 165728.0, '0.0026290960000000018', ((3, 20), (4, 20), (31, 40)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/fused/p4/-': (9, 180, 1866.0, 112160.0, '0.0035334799999999977', ((3, 30), (4, 30), (31, 120)), None, None),
    'HPCGRankProgram/jacobi/fused/p4/repro': (9, 180, 14328.0, 165728.0, '0.0036299520000000027', ((3, 30), (4, 30), (31, 120)), None, 'ebb03c0f56bada65'),
    'HPCGRankProgram/mg/-/p1/-': (6, 0, 0.0, 319980.0, '0.00031998', (), None, None),
    'HPCGRankProgram/mg/-/p1/repro': (6, 0, 0.0, 357996.0, '0.000357996', (), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/-/p2/-': (6, 28, 2312.0, 563608.0, '0.0017049240000000007', ((3, 7), (4, 7), (7, 7), (8, 7)), None, None),
    'HPCGRankProgram/mg/-/p2/repro': (6, 28, 5260.0, 601624.0, '0.001753412000000001', ((3, 7), (4, 7), (7, 7), (8, 7)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/-/p3/-': (6, 56, 4120.0, 807236.0, '0.002397328', ((3, 14), (4, 14), (7, 14), (8, 14)), None, None),
    'HPCGRankProgram/mg/-/p3/repro': (6, 56, 10016.0, 845252.0, '0.0024542200000000013', ((3, 14), (4, 14), (7, 14), (8, 14)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/-/p4/-': (6, 84, 6180.0, 1050864.0, '0.0031051759999999977', ((3, 21), (4, 21), (7, 21), (8, 21)), None, None),
    'HPCGRankProgram/mg/-/p4/repro': (6, 84, 15024.0, 1088880.0, '0.0031736400000000006', ((3, 21), (4, 21), (7, 21), (8, 21)), None, 'c8fe9a822e909fc6'),
    'HPCGRankProgram/mg/fused/p1/-': (6, 0, 0.0, 319980.0, '0.00031998', (), None, None),
    'HPCGRankProgram/mg/fused/p1/repro': (6, 0, 0.0, 357996.0, '0.000357996', (), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p2/-': (6, 28, 2312.0, 563608.0, '0.0017049240000000007', ((3, 7), (4, 7), (7, 7), (8, 7)), None, None),
    'HPCGRankProgram/mg/fused/p2/repro': (6, 28, 5260.0, 601624.0, '0.001753412000000001', ((3, 7), (4, 7), (7, 7), (8, 7)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p3/-': (6, 56, 4120.0, 807236.0, '0.002397328', ((3, 14), (4, 14), (7, 14), (8, 14)), None, None),
    'HPCGRankProgram/mg/fused/p3/repro': (6, 56, 10016.0, 845252.0, '0.0024542200000000013', ((3, 14), (4, 14), (7, 14), (8, 14)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p4/-': (6, 84, 6180.0, 1050864.0, '0.0031051759999999977', ((3, 21), (4, 21), (7, 21), (8, 21)), None, None),
    'HPCGRankProgram/mg/fused/p4/repro': (6, 84, 15024.0, 1088880.0, '0.0031736400000000006', ((3, 21), (4, 21), (7, 21), (8, 21)), None, 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/none/-/p1/-/-/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/-/arq/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/abft/-/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/abft/arq/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p2/-/-/repro': (9, 60, 5876.0, 196320.0, '0.0026533200000000007', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/-/arq/repro': (9, 120, 6116.0, 196320.0, '0.006159319999999993', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/abft/-/repro': (9, 60, 17572.0, 196320.0, '0.002770280000000001', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/abft/arq/repro': (9, 120, 17812.0, 196320.0, '0.006276279999999993', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p3/-/-/-': (9, 120, 4424.0, 151392.0, '0.004081564000000004', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/-/arq/-': (9, 240, 4904.0, 151392.0, '0.009601063999999986', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/abft/-/-': (9, 120, 4768.0, 151392.0, '0.004084144000000002', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/abft/arq/-': (9, 240, 5248.0, 151392.0, '0.009604503999999982', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p4/-/-/repro': (9, 240, 16608.0, 196320.0, '0.005653700000000003', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/-/arq/repro': (9, 480, 17568.0, 196320.0, '0.01517109999999999', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/abft/-/repro': (9, 240, 51696.0, 196320.0, '0.005887620000000007', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/abft/arq/repro': (9, 480, 52656.0, 196320.0, '0.015405019999999995', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p1/-/-/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/-/arq/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/abft/-/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/abft/arq/-': (9, 0, 0.0, 151392.0, '0.00015139199999999995', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p2/-/-/repro': (9, 60, 5876.0, 196320.0, '0.0026533200000000007', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/-/arq/repro': (9, 120, 6116.0, 196320.0, '0.006159319999999993', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/abft/-/repro': (9, 60, 17572.0, 196320.0, '0.002770280000000001', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/abft/arq/repro': (9, 120, 17812.0, 196320.0, '0.006276279999999993', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p3/-/-/-': (9, 120, 4424.0, 151392.0, '0.004081564000000004', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/-/arq/-': (9, 240, 4904.0, 151392.0, '0.009601063999999986', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/abft/-/-': (9, 120, 4768.0, 151392.0, '0.004084144000000002', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/abft/arq/-': (9, 240, 5248.0, 151392.0, '0.009604503999999982', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p4/-/-/repro': (9, 240, 16608.0, 196320.0, '0.005653700000000003', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/-/arq/repro': (9, 480, 17568.0, 196320.0, '0.01517109999999999', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/abft/-/repro': (9, 240, 51696.0, 196320.0, '0.005887620000000007', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/abft/arq/repro': (9, 480, 52656.0, 196320.0, '0.015405019999999995', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/jacobi/-/p1/-/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/-/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/abft/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/abft/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p2/-/-/repro': (9, 60, 7236.0, 220080.0, '0.002678800000000001', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/-/arq/repro': (9, 120, 7476.0, 220080.0, '0.006184799999999989', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/abft/-/repro': (9, 60, 20292.0, 220080.0, '0.0028093599999999986', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/abft/arq/repro': (9, 120, 20532.0, 220080.0, '0.006315359999999991', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p3/-/-/-': (9, 120, 4464.0, 157872.0, '0.004084024', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/-/arq/-': (9, 240, 4944.0, 157872.0, '0.009603623999999984', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/abft/-/-': (9, 120, 4848.0, 157872.0, '0.004086903999999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/abft/arq/-': (9, 240, 5328.0, 157872.0, '0.00960746399999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p4/-/-/repro': (9, 240, 20688.0, 220080.0, '0.005686840000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/-/arq/repro': (9, 480, 21648.0, 220080.0, '0.015204239999999973', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/abft/-/repro': (9, 240, 59856.0, 220080.0, '0.005947960000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/abft/arq/repro': (9, 480, 60816.0, 220080.0, '0.015465359999999971', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p1/-/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/-/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/abft/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/abft/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p2/-/-/repro': (9, 60, 7236.0, 220080.0, '0.002678800000000001', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/-/arq/repro': (9, 120, 7476.0, 220080.0, '0.006184799999999989', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/abft/-/repro': (9, 60, 20292.0, 220080.0, '0.0028093599999999986', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/abft/arq/repro': (9, 120, 20532.0, 220080.0, '0.006315359999999991', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p3/-/-/-': (9, 120, 4464.0, 157872.0, '0.004084024', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/-/arq/-': (9, 240, 4944.0, 157872.0, '0.009603623999999984', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/abft/-/-': (9, 120, 4848.0, 157872.0, '0.004086903999999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/abft/arq/-': (9, 240, 5328.0, 157872.0, '0.00960746399999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p4/-/-/repro': (9, 240, 20688.0, 220080.0, '0.005686840000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/-/arq/repro': (9, 480, 21648.0, 220080.0, '0.015204239999999973', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/abft/-/repro': (9, 240, 59856.0, 220080.0, '0.005947960000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/abft/arq/repro': (9, 480, 60816.0, 220080.0, '0.015465359999999971', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/mg/-/p2/-/-/repro': (6, 40, 6640.0, 634408.0, '0.002383604000000001', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/-/arq/repro': (6, 80, 6800.0, 634408.0, '0.004385203999999998', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/abft/-/repro': (6, 40, 15752.0, 634408.0, '0.002474724', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/abft/arq/repro': (6, 80, 15912.0, 634408.0, '0.0044763239999999985', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p3/-/-/-': (6, 80, 5860.0, 834836.0, '0.003318442000000001', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/-/arq/-': (6, 160, 6180.0, 834836.0, '0.006337571999999997', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/abft/-/-': (6, 80, 6128.0, 834836.0, '0.003320452', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/abft/arq/-': (6, 160, 6448.0, 834836.0, '0.006340251999999994', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p2/-/-/repro': (6, 40, 6640.0, 634408.0, '0.002383604000000001', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/-/arq/repro': (6, 80, 6800.0, 634408.0, '0.004385203999999998', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/abft/-/repro': (6, 40, 15752.0, 634408.0, '0.002474724', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/abft/arq/repro': (6, 80, 15912.0, 634408.0, '0.0044763239999999985', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p3/-/-/-': (6, 80, 5860.0, 834836.0, '0.003318442000000001', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/-/arq/-': (6, 160, 6180.0, 834836.0, '0.006337571999999997', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/abft/-/-': (6, 80, 6128.0, 834836.0, '0.003320452', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/abft/arq/-': (6, 160, 6448.0, 834836.0, '0.006340251999999994', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'CGRankProgram/-/maxiter5/p2': (5, 34, 1992.0, 10224.0, '0.0017251220000000008', ((3, 12), (4, 12), (7, 5), (8, 5)), None, 'd51b0670940b0d8d'),
    'CGRankProgram/-/x0/p3': (32, 396, 22176.0, 61392.0, '0.015031240000000123', ((3, 132), (4, 132), (7, 66), (8, 66)), None, 'b8b94b44c7d6f14c'),
    'CGRankProgram/-/solved-at-0/p2': (0, 6, 344.0, 1584.0, '0.00030425', ((3, 2), (4, 2), (7, 1), (8, 1)), None, '08d0802531b8b763'),
    'CGRankProgram/fused/maxiter5/p2': (5, 24, 2200.0, 11904.0, '0.00122806', ((3, 6), (4, 6), (7, 6), (8, 6)), None, '1097647d64366939'),
    'CGRankProgram/fused/x0/p3': (32, 268, 22576.0, 65472.0, '0.010235432000000013', ((3, 66), (4, 66), (7, 68), (8, 68)), None, '3d16316d8b214ef1'),
    'CGRankProgram/fused/solved-at-0/p2': (0, 6, 552.0, 2688.0, '0.0003069', ((3, 1), (4, 1), (7, 2), (8, 2)), None, '08d0802531b8b763'),
    'PCGRankProgram/-/maxiter5/p2': (5, 46, 2808.0, 13488.0, '0.0023349140000000004', ((3, 18), (4, 18), (7, 5), (8, 5)), None, 'b075a4afbb3b7cc1'),
    'PCGRankProgram/-/x0/p3': (27, 444, 26160.0, 66288.0, '0.016863592000000153', ((3, 166), (4, 166), (7, 56), (8, 56)), None, '57c669e90df77cee'),
    'PCGRankProgram/-/solved-at-0/p2': (0, 6, 344.0, 1584.0, '0.00030425', ((3, 2), (4, 2), (7, 1), (8, 1)), None, '08d0802531b8b763'),
    'PCGRankProgram/fused/maxiter5/p2': (5, 24, 3016.0, 15072.0, '0.0012378040000000001', ((3, 6), (4, 6), (7, 6), (8, 6)), None, '37ceaac125f5c68d'),
    'PCGRankProgram/fused/x0/p3': (27, 228, 26832.0, 70416.0, '0.00876983999999999', ((3, 56), (4, 56), (7, 58), (8, 58)), None, '7dca835b53a04253'),
    'PCGRankProgram/fused/solved-at-0/p2': (0, 6, 688.0, 3216.0, '0.000308524', ((3, 1), (4, 1), (7, 2), (8, 2)), None, '08d0802531b8b763'),
    'ResilientCGProgram/-/maxiter5/p2': (5, 46, 2616.0, 13968.0, '0.002333288000000001', ((3, 12), (4, 12), (7, 5), (8, 5), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 3, None), 'd51b0670940b0d8d'),
    'ResilientCGProgram/-/x0/p3': (32, 548, 29776.0, 84816.0, '0.020792856000000155', ((3, 132), (4, 132), (7, 66), (8, 66), (21, 38), (22, 38), (23, 38), (24, 38)), (0, 19, 17, None), 'b8b94b44c7d6f14c'),
    'ResilientCGProgram/-/solved-at-0/p2': (0, 6, 344.0, 1728.0, '0.000304322', ((3, 2), (4, 2), (7, 1), (8, 1)), (0, 0, 1, None), '08d0802531b8b763'),
    'ResilientCGProgram/fused/maxiter5/p2': (5, 36, 2824.0, 15792.0, '0.0018362980000000005', ((3, 6), (4, 6), (7, 6), (8, 6), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 3, None), '1097647d64366939'),
    'ResilientCGProgram/fused/x0/p3': (32, 420, 30176.0, 89520.0, '0.01599725600000006', ((3, 66), (4, 66), (7, 68), (8, 68), (21, 38), (22, 38), (23, 38), (24, 38)), (0, 19, 16, None), '3d16316d8b214ef1'),
    'ResilientCGProgram/fused/solved-at-0/p2': (0, 6, 552.0, 2688.0, '0.0003069', ((3, 1), (4, 1), (7, 2), (8, 2)), (0, 0, 0, None), '08d0802531b8b763'),
    'HPCGRankProgram/-/maxiter5/p2': (5, 24, 3016.0, 100128.0, '0.0009780640000000003', ((3, 6), (4, 6), (31, 12)), None, '34ae0ef7d21dbda2'),
    'HPCGRankProgram/-/x0/p3': (11, 100, 12368.0, 207152.0, '0.0033112080000000047', ((3, 24), (4, 24), (7, 2), (8, 2), (31, 48)), None, 'd220d868366adf7e'),
    'HPCGRankProgram/-/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), None, 'b603bd4024771cb1'),
    'HPCGRankProgram/fused/maxiter5/p2': (5, 24, 3016.0, 100128.0, '0.0009780640000000003', ((3, 6), (4, 6), (31, 12)), None, '34ae0ef7d21dbda2'),
    'HPCGRankProgram/fused/x0/p3': (11, 100, 12368.0, 207152.0, '0.0033112080000000047', ((3, 24), (4, 24), (7, 2), (8, 2), (31, 48)), None, 'd220d868366adf7e'),
    'HPCGRankProgram/fused/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), None, 'b603bd4024771cb1'),
    'ResilientHPCGProgram/-/maxiter5/p2': (5, 36, 4396.0, 133776.0, '0.001608688000000001', ((3, 6), (4, 6), (21, 3), (22, 3), (23, 3), (24, 3), (31, 12)), (0, 3, 3, None), '34ae0ef7d21dbda2'),
    'ResilientHPCGProgram/-/x0/p3': (11, 156, 18304.0, 284800.0, '0.005478960000000005', ((3, 24), (4, 24), (7, 2), (8, 2), (21, 14), (22, 14), (23, 14), (24, 14), (31, 48)), (0, 7, 6, None), 'd220d868366adf7e'),
    'ResilientHPCGProgram/-/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), (0, 0, 0, None), 'b603bd4024771cb1'),
    'ResilientHPCGProgram/fused/maxiter5/p2': (5, 36, 4396.0, 133776.0, '0.001608688000000001', ((3, 6), (4, 6), (21, 3), (22, 3), (23, 3), (24, 3), (31, 12)), (0, 3, 3, None), '34ae0ef7d21dbda2'),
    'ResilientHPCGProgram/fused/x0/p3': (11, 156, 18304.0, 284800.0, '0.005478960000000005', ((3, 24), (4, 24), (7, 2), (8, 2), (21, 14), (22, 14), (23, 14), (24, 14), (31, 48)), (0, 7, 6, None), 'd220d868366adf7e'),
    'ResilientHPCGProgram/fused/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), (0, 0, 0, None), 'b603bd4024771cb1'),
    'ResilientCGProgram/-/restart/p4': (32, 720, 39024.0, 74304.0, '0.024281496000000135', ((3, 168), (4, 168), (7, 84), (8, 84), (21, 54), (22, 54), (23, 54), (24, 54)), (0, 18, 14, 4), '3518286b02a9b15e'),
    'ResilientCGProgram/-/rollback/p4': (32, 870, 47280.0, 89520.0, '0.02934088000000016', ((3, 204), (4, 204), (7, 99), (8, 99), (21, 66), (22, 66), (23, 66), (24, 66)), (1, 22, 17, None), '3518286b02a9b15e'),
    'ResilientCGProgram/fused/restart/p4': (32, 552, 39024.0, 77280.0, '0.018682240000000076', ((3, 84), (4, 84), (7, 84), (8, 84), (21, 54), (22, 54), (23, 54), (24, 54)), (0, 18, 13, 4), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/rollback/p4': (32, 672, 47880.0, 94176.0, '0.02274610400000006', ((3, 102), (4, 102), (7, 102), (8, 102), (21, 66), (22, 66), (23, 66), (24, 66)), (1, 22, 16, None), 'bc9abcb7f7a62081'),
    'ResilientHPCGProgram/jacobi/-/restart/p4': (9, 126, 10776.0, 115000.0, '0.0030476299999999987', ((3, 15), (4, 15), (21, 9), (22, 9), (23, 9), (24, 9), (31, 60)), (0, 3, 2, 4), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/rollback/p4': (9, 282, 24624.0, 259128.0, '0.006872502000000001', ((3, 33), (4, 33), (21, 21), (22, 21), (23, 21), (24, 21), (31, 132)), (1, 7, 5, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/restart/p4': (9, 126, 10776.0, 115000.0, '0.0030476299999999987', ((3, 15), (4, 15), (21, 9), (22, 9), (23, 9), (24, 9), (31, 60)), (0, 3, 2, 4), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/rollback/p4': (9, 282, 24624.0, 259128.0, '0.006872502000000001', ((3, 33), (4, 33), (21, 21), (22, 21), (23, 21), (24, 21), (31, 132)), (1, 7, 5, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/mg/-/restart/p4': (6, 36, 5448.0, 320720.0, '0.0013170400000000002', ((3, 6), (4, 6), (7, 6), (8, 6), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 1, 0, 4), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/-/rollback/p4': (6, 156, 23472.0, 1298848.0, '0.005683531999999998', ((3, 24), (4, 24), (7, 24), (8, 24), (21, 15), (22, 15), (23, 15), (24, 15)), (1, 5, 3, None), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/fused/restart/p4': (6, 36, 5448.0, 320720.0, '0.0013170400000000002', ((3, 6), (4, 6), (7, 6), (8, 6), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 1, 0, 4), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/fused/rollback/p4': (6, 156, 23472.0, 1298848.0, '0.005683531999999998', ((3, 24), (4, 24), (7, 24), (8, 24), (21, 15), (22, 15), (23, 15), (24, 15)), (1, 5, 3, None), 'c8fe9a822e909fc6'),
}


_CASES = dict(_cases())


def test_case_set_matches_goldens():
    assert sorted(_CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case_id", sorted(_CASES))
def test_golden(case_id):
    assert _CASES[case_id]() == GOLDEN[case_id]


if __name__ == "__main__":
    print("GOLDEN = {")
    for cid, thunk in _CASES.items():
        print(f"    {cid!r}: {thunk()!r},")
    print("}")
