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
``PYTHONPATH=src python tests/test_rank_program_goldens.py`` run on commit
``31c01ac`` -- i.e. *before* the rank programs were collapsed onto the
shared CG kernel -- and committed ahead of that refactor.  Do not
regenerate it to make a failing case pass: a mismatch means the op stream
(message count, tag, payload size, charged flops or their order) or the
arithmetic of a program changed.

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


def _build(cls, **kw):
    if cls in (HPCGRankProgram, ResilientHPCGProgram):
        A, b = _system("hpcg")
        return cls(A, b, SHAPE, criterion=CRIT, **kw)
    A, b = _system("rowblock")
    return cls(A, b, criterion=CRIT, **kw)


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


def _cases():
    """Yield ``(case_id, thunk)``; the thunk returns the golden tuple."""
    ps = (1, 2, 3, 4)
    tf = (False, True)

    def case(cid, cls, p, **kw):
        return cid, (lambda: _record(_build(cls, **kw), p))

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

        yield f"{name}/restart/p4", restart
        yield f"{name}/rollback/p4", rollback


GOLDEN = {
    'CGRankProgram/-/p1/-': (32, 0, 0.0, 35424.0, '3.5424000000000046e-05', (), None, None),
    'CGRankProgram/-/p1/repro': (32, 0, 0.0, 35424.0, '3.5424000000000046e-05', (), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p2/-': (32, 196, 2436.0, 35424.0, '0.009842647999999982', ((3, 66), (4, 66), (7, 32), (8, 32)), None, None),
    'CGRankProgram/-/p2/repro': (32, 196, 11280.0, 35424.0, '0.009931088000000032', ((3, 66), (4, 66), (7, 32), (8, 32)), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p3/-': (32, 392, 4360.0, 35424.0, '0.014739131999999978', ((3, 132), (4, 132), (7, 64), (8, 64)), None, None),
    'CGRankProgram/-/p3/repro': (32, 392, 22048.0, 35424.0, '0.014871792000000108', ((3, 132), (4, 132), (7, 64), (8, 64)), None, '3518286b02a9b15e'),
    'CGRankProgram/-/p4/-': (32, 588, 6540.0, 35424.0, '0.019654375999999946', ((3, 198), (4, 198), (7, 96), (8, 96)), None, None),
    'CGRankProgram/-/p4/repro': (32, 588, 33072.0, 35424.0, '0.019831256000000155', ((3, 198), (4, 198), (7, 96), (8, 96)), None, '3518286b02a9b15e'),
    'CGRankProgram/fused/p1/-': (32, 0, 0.0, 39120.0, '3.912000000000006e-05', (), None, None),
    'CGRankProgram/fused/p1/repro': (32, 0, 0.0, 39120.0, '3.912000000000006e-05', (), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p2/-': (32, 132, 2510.0, 39120.0, '0.0066452539999999885', ((3, 33), (4, 33), (7, 33), (8, 33)), None, None),
    'CGRankProgram/fused/p2/repro': (32, 132, 11488.0, 39120.0, '0.006735034000000006', ((3, 33), (4, 33), (7, 33), (8, 33)), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p3/-': (32, 264, 4492.0, 39120.0, '0.00994118599999997', ((3, 66), (4, 66), (7, 66), (8, 66)), None, None),
    'CGRankProgram/fused/p3/repro': (32, 264, 22448.0, 39120.0, '0.010075856000000011', ((3, 66), (4, 66), (7, 66), (8, 66)), None, 'bc9abcb7f7a62081'),
    'CGRankProgram/fused/p4/-': (32, 396, 6738.0, 39120.0, '0.01325668', ((3, 99), (4, 99), (7, 99), (8, 99)), None, None),
    'CGRankProgram/fused/p4/repro': (32, 396, 33672.0, 39120.0, '0.013436240000000065', ((3, 99), (4, 99), (7, 99), (8, 99)), None, 'bc9abcb7f7a62081'),
    'PCGRankProgram/-/p1/-': (27, 0, 0.0, 33792.0, '3.3792000000000045e-05', (), None, None),
    'PCGRankProgram/-/p1/repro': (27, 0, 0.0, 33792.0, '3.3792000000000045e-05', (), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p2/-': (27, 220, 2110.0, 33792.0, '0.011038481999999983', ((3, 83), (4, 83), (7, 27), (8, 27)), None, None),
    'PCGRankProgram/-/p2/repro': (27, 220, 13232.0, 33792.0, '0.01114970200000006', ((3, 83), (4, 83), (7, 27), (8, 27)), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p3/-': (27, 440, 3788.0, 33792.0, '0.016535137999999967', ((3, 166), (4, 166), (7, 54), (8, 54)), None, None),
    'PCGRankProgram/-/p3/repro': (27, 440, 26032.0, 33792.0, '0.016701968000000147', ((3, 166), (4, 166), (7, 54), (8, 54)), None, '253a5c033496c18c'),
    'PCGRankProgram/-/p4/-': (27, 660, 5682.0, 33792.0, '0.022047947999999942', ((3, 249), (4, 249), (7, 81), (8, 81)), None, None),
    'PCGRankProgram/-/p4/repro': (27, 660, 39048.0, 33792.0, '0.02227038800000022', ((3, 249), (4, 249), (7, 81), (8, 81)), None, '253a5c033496c18c'),
    'PCGRankProgram/fused/p1/-': (27, 0, 0.0, 37152.0, '3.7152000000000026e-05', (), None, None),
    'PCGRankProgram/fused/p1/repro': (27, 0, 0.0, 37152.0, '3.7152000000000026e-05', (), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p2/-': (27, 112, 2186.0, 37152.0, '0.005640940000000009', ((3, 28), (4, 28), (7, 28), (8, 28)), None, None),
    'PCGRankProgram/fused/p2/repro': (27, 112, 13576.0, 37152.0, '0.0057548400000000015', ((3, 28), (4, 28), (7, 28), (8, 28)), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p3/-': (27, 224, 3924.0, 37152.0, '0.008437110000000008', ((3, 56), (4, 56), (7, 56), (8, 56)), None, None),
    'PCGRankProgram/fused/p3/repro': (27, 224, 26704.0, 37152.0, '0.008607959999999987', ((3, 56), (4, 56), (7, 56), (8, 56)), None, '66ac571fa594455f'),
    'PCGRankProgram/fused/p4/-': (27, 336, 5886.0, 37152.0, '0.011250208000000024', ((3, 84), (4, 84), (7, 84), (8, 84)), None, None),
    'PCGRankProgram/fused/p4/repro': (27, 336, 40056.0, 37152.0, '0.01147800800000001', ((3, 84), (4, 84), (7, 84), (8, 84)), None, '66ac571fa594455f'),
    'ResilientCGProgram/-/p1/-/-/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/-/arq/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/abft/-/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p1/abft/arq/-': (32, 0, 0.0, 48240.0, '4.824000000000004e-05', (), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p2/-/-/repro': (32, 260, 14608.0, 48240.0, '0.013171064000000088', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/-/arq/repro': (32, 520, 15648.0, 48240.0, '0.02617973600000016', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 66), (1048580, 66), (1048583, 32), (1048584, 32), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/abft/-/repro': (32, 260, 34464.0, 48240.0, '0.013369624000000031', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p2/abft/arq/repro': (32, 520, 35504.0, 48240.0, '0.026378296000000086', ((3, 66), (4, 66), (7, 32), (8, 32), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 66), (1048580, 66), (1048583, 32), (1048584, 32), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p3/-/-/-': (32, 520, 6472.0, 48240.0, '0.019556555999999968', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/-/arq/-': (32, 1040, 8552.0, 48240.0, '0.039095919999999805', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 132), (1048580, 132), (1048583, 64), (1048584, 64), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/abft/-/-': (32, 520, 7056.0, 48240.0, '0.019560936000000046', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p3/abft/arq/-': (32, 1040, 9136.0, 48240.0, '0.03910176000000003', ((3, 132), (4, 132), (7, 64), (8, 64), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 132), (1048580, 132), (1048583, 64), (1048584, 64), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 9, None), None),
    'ResilientCGProgram/-/p4/-/-/repro': (32, 780, 42672.0, 48240.0, '0.026299420000000222', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/-/arq/repro': (32, 1560, 45792.0, 48240.0, '0.03931377200000026', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 198), (1048580, 198), (1048583, 96), (1048584, 96), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/abft/-/repro': (32, 780, 102240.0, 48240.0, '0.026696539999999998', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/-/p4/abft/arq/repro': (32, 1560, 105360.0, 48240.0, '0.039710891999999984', ((3, 198), (4, 198), (7, 96), (8, 96), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 198), (1048580, 198), (1048583, 96), (1048584, 96), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 9, None), '3518286b02a9b15e'),
    'ResilientCGProgram/fused/p1/-/-/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/-/arq/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/abft/-/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p1/abft/arq/-': (32, 0, 0.0, 52176.0, '5.2176000000000064e-05', (), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p2/-/-/repro': (32, 196, 14816.0, 52176.0, '0.009975130000000014', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/-/arq/repro': (32, 392, 15600.0, 52176.0, '0.019781206000000037', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 33), (1048580, 33), (1048583, 33), (1048584, 33), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/abft/-/repro': (32, 196, 35080.0, 52176.0, '0.010177769999999994', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p2/abft/arq/repro': (32, 392, 35864.0, 52176.0, '0.01998384600000003', ((3, 33), (4, 33), (7, 33), (8, 33), (21, 16), (22, 16), (23, 16), (24, 16), (1048579, 33), (1048580, 33), (1048583, 33), (1048584, 33), (1048597, 16), (1048598, 16), (1048599, 16), (1048600, 16)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p3/-/-/-': (32, 392, 6604.0, 52176.0, '0.014758689999999963', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/-/arq/-': (32, 784, 8172.0, 52176.0, '0.029494702000000126', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 66), (1048580, 66), (1048583, 66), (1048584, 66), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/abft/-/-': (32, 392, 7200.0, 52176.0, '0.014763159999999968', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p3/abft/arq/-': (32, 784, 8768.0, 52176.0, '0.029500662000000153', ((3, 66), (4, 66), (7, 66), (8, 66), (21, 32), (22, 32), (23, 32), (24, 32), (1048579, 66), (1048580, 66), (1048583, 66), (1048584, 66), (1048597, 32), (1048598, 32), (1048599, 32), (1048600, 32)), (0, 16, 8, None), None),
    'ResilientCGProgram/fused/p4/-/-/repro': (32, 588, 43272.0, 52176.0, '0.019904464000000083', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/-/arq/repro': (32, 1176, 45624.0, 52176.0, '0.02971495000000011', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 99), (1048580, 99), (1048583, 99), (1048584, 99), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/abft/-/repro': (32, 588, 104064.0, 52176.0, '0.02030974400000006', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/p4/abft/arq/repro': (32, 1176, 106416.0, 52176.0, '0.03012023000000014', ((3, 99), (4, 99), (7, 99), (8, 99), (21, 48), (22, 48), (23, 48), (24, 48), (1048579, 99), (1048580, 99), (1048583, 99), (1048584, 99), (1048597, 48), (1048598, 48), (1048599, 48), (1048600, 48)), (0, 16, 8, None), 'bc9abcb7f7a62081'),
    'HPCGRankProgram/none/-/p1/-': (9, 0, 0.0, 110000.0, '0.00010999999999999998', (), None, None),
    'HPCGRankProgram/none/-/p1/repro': (9, 0, 0.0, 163568.0, '0.00016356799999999998', (), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p2/-': (9, 82, 782.0, 110000.0, '0.0036592200000000017', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (31, 20)), None, None),
    'HPCGRankProgram/none/-/p2/repro': (9, 82, 4936.0, 163568.0, '0.003727543999999999', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (31, 20)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p3/-': (9, 164, 1564.0, 110000.0, '0.005698209999999994', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (31, 40)), None, None),
    'HPCGRankProgram/none/-/p3/repro': (9, 164, 9872.0, 163568.0, '0.005778376000000004', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (31, 40)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/-/p4/-': (9, 306, 1866.0, 110000.0, '0.007732939999999987', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (31, 120)), None, None),
    'HPCGRankProgram/none/-/p4/repro': (9, 306, 14328.0, 163568.0, '0.007829412000000004', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (31, 120)), None, 'a549945d475862a1'),
    'HPCGRankProgram/none/fused/p1/-': (9, 0, 0.0, 110000.0, '0.00010999999999999998', (), None, None),
    'HPCGRankProgram/none/fused/p1/repro': (9, 0, 0.0, 163568.0, '0.00016356799999999998', (), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p2/-': (9, 40, 782.0, 110000.0, '0.00155922', ((3, 10), (4, 10), (31, 20)), None, None),
    'HPCGRankProgram/none/fused/p2/repro': (9, 40, 4936.0, 163568.0, '0.0016275440000000007', ((3, 10), (4, 10), (31, 20)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p3/-': (9, 80, 1564.0, 110000.0, '0.0025482099999999995', ((3, 20), (4, 20), (31, 40)), None, None),
    'HPCGRankProgram/none/fused/p3/repro': (9, 80, 9872.0, 163568.0, '0.002628376000000002', ((3, 20), (4, 20), (31, 40)), None, '24ccf69845ee2bcc'),
    'HPCGRankProgram/none/fused/p4/-': (9, 180, 1866.0, 110000.0, '0.003532939999999997', ((3, 30), (4, 30), (31, 120)), None, None),
    'HPCGRankProgram/none/fused/p4/repro': (9, 180, 14328.0, 163568.0, '0.003629412000000002', ((3, 30), (4, 30), (31, 120)), None, 'a549945d475862a1'),
    'HPCGRankProgram/jacobi/-/p1/-': (9, 0, 0.0, 112160.0, '0.00011215999999999997', (), None, None),
    'HPCGRankProgram/jacobi/-/p1/repro': (9, 0, 0.0, 165728.0, '0.000165728', (), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p2/-': (9, 82, 782.0, 112160.0, '0.0036603000000000013', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (31, 20)), None, None),
    'HPCGRankProgram/jacobi/-/p2/repro': (9, 82, 4936.0, 165728.0, '0.0037286239999999985', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (31, 20)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p3/-': (9, 164, 1564.0, 112160.0, '0.005698929999999995', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (31, 40)), None, None),
    'HPCGRankProgram/jacobi/-/p3/repro': (9, 164, 9872.0, 165728.0, '0.005779096000000004', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (31, 40)), None, '7ea1e96254669855'),
    'HPCGRankProgram/jacobi/-/p4/-': (9, 306, 1866.0, 112160.0, '0.007733479999999988', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (31, 120)), None, None),
    'HPCGRankProgram/jacobi/-/p4/repro': (9, 306, 14328.0, 165728.0, '0.007829952000000006', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (31, 120)), None, 'ebb03c0f56bada65'),
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
    'HPCGRankProgram/mg/-/p2/-': (6, 58, 2312.0, 563608.0, '0.0032049240000000014', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 1), (10, 1)), None, None),
    'HPCGRankProgram/mg/-/p2/repro': (6, 58, 5260.0, 601624.0, '0.003253411999999999', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 1), (10, 1)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/-/p3/-': (6, 116, 4120.0, 807236.0, '0.004647327999999999', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 2), (10, 2)), None, None),
    'HPCGRankProgram/mg/-/p3/repro': (6, 116, 10016.0, 845252.0, '0.004704220000000002', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 2), (10, 2)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/-/p4/-': (6, 174, 6180.0, 1050864.0, '0.00610517599999999', ((3, 21), (4, 21), (5, 21), (6, 21), (7, 42), (8, 42), (9, 3), (10, 3)), None, None),
    'HPCGRankProgram/mg/-/p4/repro': (6, 174, 15024.0, 1088880.0, '0.0061736399999999985', ((3, 21), (4, 21), (5, 21), (6, 21), (7, 42), (8, 42), (9, 3), (10, 3)), None, 'c8fe9a822e909fc6'),
    'HPCGRankProgram/mg/fused/p1/-': (6, 0, 0.0, 319980.0, '0.00031998', (), None, None),
    'HPCGRankProgram/mg/fused/p1/repro': (6, 0, 0.0, 357996.0, '0.000357996', (), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p2/-': (6, 28, 2312.0, 563608.0, '0.0017049240000000007', ((3, 7), (4, 7), (7, 7), (8, 7)), None, None),
    'HPCGRankProgram/mg/fused/p2/repro': (6, 28, 5260.0, 601624.0, '0.001753412000000001', ((3, 7), (4, 7), (7, 7), (8, 7)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p3/-': (6, 56, 4120.0, 807236.0, '0.002397328', ((3, 14), (4, 14), (7, 14), (8, 14)), None, None),
    'HPCGRankProgram/mg/fused/p3/repro': (6, 56, 10016.0, 845252.0, '0.0024542200000000013', ((3, 14), (4, 14), (7, 14), (8, 14)), None, '489caec37acd2130'),
    'HPCGRankProgram/mg/fused/p4/-': (6, 84, 6180.0, 1050864.0, '0.0031051759999999977', ((3, 21), (4, 21), (7, 21), (8, 21)), None, None),
    'HPCGRankProgram/mg/fused/p4/repro': (6, 84, 15024.0, 1088880.0, '0.0031736400000000006', ((3, 21), (4, 21), (7, 21), (8, 21)), None, 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/none/-/p1/-/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/-/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/abft/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p1/abft/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p2/-/-/repro': (9, 102, 7236.0, 220080.0, '0.004778799999999998', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/-/arq/repro': (9, 204, 7644.0, 220080.0, '0.010386479999999983', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048581, 10), (1048582, 10), (1048583, 10), (1048584, 10), (1048585, 1), (1048586, 1), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/abft/-/repro': (9, 122, 20292.0, 220080.0, '0.005909360000000002', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (10, 10), (11, 1), (12, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p2/abft/arq/repro': (9, 244, 20780.0, 220080.0, '0.01251783999999997', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (10, 10), (11, 1), (12, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048581, 10), (1048582, 10), (1048583, 10), (1048584, 10), (1048585, 10), (1048586, 10), (1048587, 1), (1048588, 1), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/-/p3/-/-/-': (9, 204, 4464.0, 157872.0, '0.007234023999999984', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/-/arq/-': (9, 408, 5280.0, 157872.0, '0.01590614399999993', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048581, 20), (1048582, 20), (1048583, 20), (1048584, 20), (1048585, 2), (1048586, 2), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/abft/-/-': (9, 244, 4848.0, 157872.0, '0.00873690399999998', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 20), (10, 20), (11, 2), (12, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p3/abft/arq/-': (9, 488, 5824.0, 157872.0, '0.01891118399999998', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 20), (10, 20), (11, 2), (12, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048581, 20), (1048582, 20), (1048583, 20), (1048584, 20), (1048585, 20), (1048586, 20), (1048587, 2), (1048588, 2), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/-/p4/-/-/repro': (9, 366, 20688.0, 220080.0, '0.009886840000000036', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/-/arq/repro': (9, 732, 22152.0, 220080.0, '0.02150676000000011', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048581, 30), (1048582, 30), (1048583, 30), (1048584, 30), (1048585, 3), (1048586, 3), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/abft/-/repro': (9, 426, 59856.0, 220080.0, '0.012147960000000036', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (11, 3), (12, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/-/p4/abft/arq/repro': (9, 852, 61560.0, 220080.0, '0.024769080000000117', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (11, 3), (12, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048581, 30), (1048582, 30), (1048583, 30), (1048584, 30), (1048585, 30), (1048586, 30), (1048587, 3), (1048588, 3), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p1/-/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/-/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/abft/-/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p1/abft/arq/-': (9, 0, 0.0, 157872.0, '0.00015787199999999993', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p2/-/-/repro': (9, 60, 7236.0, 220080.0, '0.0026788000000000003', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/-/arq/repro': (9, 120, 7476.0, 220080.0, '0.006184799999999987', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/abft/-/repro': (9, 60, 20292.0, 220080.0, '0.0028093599999999986', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p2/abft/arq/repro': (9, 120, 20532.0, 220080.0, '0.0063153599999999895', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '24ccf69845ee2bcc'),
    'ResilientHPCGProgram/none/fused/p3/-/-/-': (9, 120, 4464.0, 157872.0, '0.004084024000000001', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/-/arq/-': (9, 240, 4944.0, 157872.0, '0.009603623999999982', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/abft/-/-': (9, 120, 4848.0, 157872.0, '0.004086903999999999', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p3/abft/arq/-': (9, 240, 5328.0, 157872.0, '0.00960746399999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/none/fused/p4/-/-/repro': (9, 240, 20688.0, 220080.0, '0.005686840000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/-/arq/repro': (9, 480, 21648.0, 220080.0, '0.015204239999999977', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/abft/-/repro': (9, 240, 59856.0, 220080.0, '0.005947960000000001', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/none/fused/p4/abft/arq/repro': (9, 480, 60816.0, 220080.0, '0.015465359999999975', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'a549945d475862a1'),
    'ResilientHPCGProgram/jacobi/-/p1/-/-/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/-/arq/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/abft/-/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p1/abft/arq/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p2/-/-/repro': (9, 102, 7236.0, 222240.0, '0.0047798799999999985', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/-/arq/repro': (9, 204, 7644.0, 222240.0, '0.010387559999999983', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 1), (10, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048581, 10), (1048582, 10), (1048583, 10), (1048584, 10), (1048585, 1), (1048586, 1), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/abft/-/repro': (9, 122, 20292.0, 222240.0, '0.005910440000000005', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (10, 10), (11, 1), (12, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p2/abft/arq/repro': (9, 244, 20780.0, 222240.0, '0.012518919999999972', ((3, 10), (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (10, 10), (11, 1), (12, 1), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048581, 10), (1048582, 10), (1048583, 10), (1048584, 10), (1048585, 10), (1048586, 10), (1048587, 1), (1048588, 1), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/-/p3/-/-/-': (9, 204, 4464.0, 160032.0, '0.007234743999999985', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/-/arq/-': (9, 408, 5280.0, 160032.0, '0.015906863999999934', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 2), (10, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048581, 20), (1048582, 20), (1048583, 20), (1048584, 20), (1048585, 2), (1048586, 2), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/abft/-/-': (9, 244, 4848.0, 160032.0, '0.00873762399999998', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 20), (10, 20), (11, 2), (12, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p3/abft/arq/-': (9, 488, 5824.0, 160032.0, '0.018911903999999983', ((3, 20), (4, 20), (5, 20), (6, 20), (7, 20), (8, 20), (9, 20), (10, 20), (11, 2), (12, 2), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048581, 20), (1048582, 20), (1048583, 20), (1048584, 20), (1048585, 20), (1048586, 20), (1048587, 2), (1048588, 2), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/-/p4/-/-/repro': (9, 366, 20688.0, 222240.0, '0.009887380000000036', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/-/arq/repro': (9, 732, 22152.0, 222240.0, '0.021507300000000108', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 3), (10, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048581, 30), (1048582, 30), (1048583, 30), (1048584, 30), (1048585, 3), (1048586, 3), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/abft/-/repro': (9, 426, 59856.0, 222240.0, '0.012148500000000034', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (11, 3), (12, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/p4/abft/arq/repro': (9, 852, 61560.0, 222240.0, '0.024769620000000114', ((3, 30), (4, 30), (5, 30), (6, 30), (7, 30), (8, 30), (9, 30), (10, 30), (11, 3), (12, 3), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048581, 30), (1048582, 30), (1048583, 30), (1048584, 30), (1048585, 30), (1048586, 30), (1048587, 3), (1048588, 3), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p1/-/-/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/-/arq/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/abft/-/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p1/abft/arq/-': (9, 0, 0.0, 160032.0, '0.00016003199999999992', (), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p2/-/-/repro': (9, 60, 7236.0, 222240.0, '0.002679880000000001', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/-/arq/repro': (9, 120, 7476.0, 222240.0, '0.006185879999999988', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/abft/-/repro': (9, 60, 20292.0, 222240.0, '0.0028104399999999983', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p2/abft/arq/repro': (9, 120, 20532.0, 222240.0, '0.006316439999999991', ((3, 10), (4, 10), (21, 5), (22, 5), (23, 5), (24, 5), (31, 20), (1048579, 10), (1048580, 10), (1048597, 5), (1048598, 5), (1048599, 5), (1048600, 5), (1048607, 20)), (0, 5, 3, None), '7ea1e96254669855'),
    'ResilientHPCGProgram/jacobi/fused/p3/-/-/-': (9, 120, 4464.0, 160032.0, '0.004084744', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/-/arq/-': (9, 240, 4944.0, 160032.0, '0.009604343999999985', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/abft/-/-': (9, 120, 4848.0, 160032.0, '0.004087623999999998', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p3/abft/arq/-': (9, 240, 5328.0, 160032.0, '0.009608183999999981', ((3, 20), (4, 20), (21, 10), (22, 10), (23, 10), (24, 10), (31, 40), (1048579, 20), (1048580, 20), (1048597, 10), (1048598, 10), (1048599, 10), (1048600, 10), (1048607, 40)), (0, 5, 3, None), None),
    'ResilientHPCGProgram/jacobi/fused/p4/-/-/repro': (9, 240, 20688.0, 222240.0, '0.005687380000000002', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/-/arq/repro': (9, 480, 21648.0, 222240.0, '0.015204779999999975', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/abft/-/repro': (9, 240, 59856.0, 222240.0, '0.005948500000000003', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/p4/abft/arq/repro': (9, 480, 60816.0, 222240.0, '0.015465899999999973', ((3, 30), (4, 30), (21, 15), (22, 15), (23, 15), (24, 15), (31, 120), (1048579, 30), (1048580, 30), (1048597, 15), (1048598, 15), (1048599, 15), (1048600, 15), (1048607, 120)), (0, 5, 3, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/mg/-/p2/-/-/repro': (6, 70, 6640.0, 635704.0, '0.0038842519999999986', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 1), (10, 1), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/-/arq/repro': (6, 140, 6920.0, 635704.0, '0.007387051999999982', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 1), (10, 1), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048581, 7), (1048582, 7), (1048583, 14), (1048584, 14), (1048585, 1), (1048586, 1), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/abft/-/repro': (6, 84, 15752.0, 635704.0, '0.004675372', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 7), (10, 7), (11, 1), (12, 1), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p2/abft/arq/repro': (6, 168, 16088.0, 635704.0, '0.008878731999999986', ((3, 7), (4, 7), (5, 7), (6, 7), (7, 14), (8, 14), (9, 7), (10, 7), (11, 1), (12, 1), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048581, 7), (1048582, 7), (1048583, 14), (1048584, 14), (1048585, 7), (1048586, 7), (1048587, 1), (1048588, 1), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/-/p3/-/-/-': (6, 140, 5860.0, 836132.0, '0.005568873999999993', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 2), (10, 2), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/-/arq/-': (6, 280, 6420.0, 836132.0, '0.01083980399999998', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 2), (10, 2), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048581, 14), (1048582, 14), (1048583, 28), (1048584, 28), (1048585, 2), (1048586, 2), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/abft/-/-': (6, 168, 6128.0, 836132.0, '0.0066208839999999875', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 14), (10, 14), (11, 2), (12, 2), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/-/p3/abft/arq/-': (6, 336, 6800.0, 836132.0, '0.012943323999999961', ((3, 14), (4, 14), (5, 14), (6, 14), (7, 28), (8, 28), (9, 14), (10, 14), (11, 2), (12, 2), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048581, 14), (1048582, 14), (1048583, 28), (1048584, 28), (1048585, 14), (1048586, 14), (1048587, 2), (1048588, 2), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p2/-/-/repro': (6, 40, 6640.0, 635704.0, '0.0023842520000000008', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/-/arq/repro': (6, 80, 6800.0, 635704.0, '0.004385851999999997', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/abft/-/repro': (6, 40, 15752.0, 635704.0, '0.002475372', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p2/abft/arq/repro': (6, 80, 15912.0, 635704.0, '0.004476971999999998', ((3, 7), (4, 7), (7, 7), (8, 7), (21, 3), (22, 3), (23, 3), (24, 3), (1048579, 7), (1048580, 7), (1048583, 7), (1048584, 7), (1048597, 3), (1048598, 3), (1048599, 3), (1048600, 3)), (0, 3, 2, None), '489caec37acd2130'),
    'ResilientHPCGProgram/mg/fused/p3/-/-/-': (6, 80, 5860.0, 836132.0, '0.003318874000000001', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/-/arq/-': (6, 160, 6180.0, 836132.0, '0.006338003999999996', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/abft/-/-': (6, 80, 6128.0, 836132.0, '0.0033208840000000005', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6)), (0, 3, 2, None), None),
    'ResilientHPCGProgram/mg/fused/p3/abft/arq/-': (6, 160, 6448.0, 836132.0, '0.006340683999999993', ((3, 14), (4, 14), (7, 14), (8, 14), (21, 6), (22, 6), (23, 6), (24, 6), (1048579, 14), (1048580, 14), (1048583, 14), (1048584, 14), (1048597, 6), (1048598, 6), (1048599, 6), (1048600, 6)), (0, 3, 2, None), None),
    'CGRankProgram/-/maxiter5/p2': (5, 34, 1992.0, 5616.0, '0.001722818000000001', ((3, 12), (4, 12), (7, 5), (8, 5)), None, 'd51b0670940b0d8d'),
    'CGRankProgram/-/x0/p3': (32, 396, 22176.0, 36048.0, '0.015022792000000111', ((3, 132), (4, 132), (7, 66), (8, 66)), None, 'b8b94b44c7d6f14c'),
    'CGRankProgram/-/solved-at-0/p2': (0, 6, 344.0, 816.0, '0.000303866', ((3, 2), (4, 2), (7, 1), (8, 1)), None, '08d0802531b8b763'),
    'CGRankProgram/fused/maxiter5/p2': (5, 24, 2200.0, 6912.0, '0.001225564', ((3, 6), (4, 6), (7, 6), (8, 6)), None, '1097647d64366939'),
    'CGRankProgram/fused/x0/p3': (32, 268, 22576.0, 39744.0, '0.010226856000000013', ((3, 66), (4, 66), (7, 68), (8, 68)), None, '3d16316d8b214ef1'),
    'CGRankProgram/fused/solved-at-0/p2': (0, 6, 552.0, 1536.0, '0.00030632399999999996', ((3, 1), (4, 1), (7, 2), (8, 2)), None, '08d0802531b8b763'),
    'PCGRankProgram/-/maxiter5/p2': (5, 46, 2808.0, 6576.0, '0.0023314580000000007', ((3, 18), (4, 18), (7, 5), (8, 5)), None, 'b075a4afbb3b7cc1'),
    'PCGRankProgram/-/x0/p3': (27, 444, 26160.0, 34416.0, '0.01685296800000015', ((3, 166), (4, 166), (7, 56), (8, 56)), None, '57c669e90df77cee'),
    'PCGRankProgram/-/solved-at-0/p2': (0, 6, 344.0, 816.0, '0.000303866', ((3, 2), (4, 2), (7, 1), (8, 1)), None, '08d0802531b8b763'),
    'PCGRankProgram/fused/maxiter5/p2': (5, 24, 3016.0, 7776.0, '0.0012341560000000004', ((3, 6), (4, 6), (7, 6), (8, 6)), None, '37ceaac125f5c68d'),
    'PCGRankProgram/fused/x0/p3': (27, 228, 26832.0, 37776.0, '0.008758959999999988', ((3, 56), (4, 56), (7, 58), (8, 58)), None, '7dca835b53a04253'),
    'PCGRankProgram/fused/solved-at-0/p2': (0, 6, 688.0, 1680.0, '0.000307756', ((3, 1), (4, 1), (7, 2), (8, 2)), None, '08d0802531b8b763'),
    'ResilientCGProgram/-/maxiter5/p2': (5, 46, 2616.0, 8208.0, '0.0023304080000000013', ((3, 12), (4, 12), (7, 5), (8, 5), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 3, None), 'd51b0670940b0d8d'),
    'ResilientCGProgram/-/x0/p3': (32, 548, 29776.0, 52176.0, '0.020781976000000174', ((3, 132), (4, 132), (7, 66), (8, 66), (21, 38), (22, 38), (23, 38), (24, 38)), (0, 19, 17, None), 'b8b94b44c7d6f14c'),
    'ResilientCGProgram/-/solved-at-0/p2': (0, 6, 344.0, 960.0, '0.000303938', ((3, 2), (4, 2), (7, 1), (8, 1)), (0, 0, 1, None), '08d0802531b8b763'),
    'ResilientCGProgram/fused/maxiter5/p2': (5, 36, 2824.0, 9648.0, '0.0018332260000000007', ((3, 6), (4, 6), (7, 6), (8, 6), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 3, 3, None), '1097647d64366939'),
    'ResilientCGProgram/fused/x0/p3': (32, 420, 30176.0, 56496.0, '0.015986248000000054', ((3, 66), (4, 66), (7, 68), (8, 68), (21, 38), (22, 38), (23, 38), (24, 38)), (0, 19, 16, None), '3d16316d8b214ef1'),
    'ResilientCGProgram/fused/solved-at-0/p2': (0, 6, 552.0, 1536.0, '0.00030632399999999996', ((3, 1), (4, 1), (7, 2), (8, 2)), (0, 0, 0, None), '08d0802531b8b763'),
    'HPCGRankProgram/-/maxiter5/p2': (5, 50, 3016.0, 100128.0, '0.0022780640000000002', ((3, 6), (4, 6), (5, 6), (6, 6), (7, 6), (8, 6), (9, 1), (10, 1), (31, 12)), None, '34ae0ef7d21dbda2'),
    'HPCGRankProgram/-/x0/p3': (11, 200, 12368.0, 207152.0, '0.007061208000000007', ((3, 24), (4, 24), (5, 24), (6, 24), (7, 26), (8, 26), (9, 2), (10, 2), (31, 48)), None, 'd220d868366adf7e'),
    'HPCGRankProgram/-/solved-at-0/p2': (0, 12, 940.0, 25240.0, '0.0005716600000000001', ((3, 1), (4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (9, 1), (10, 1), (31, 2)), None, 'b603bd4024771cb1'),
    'HPCGRankProgram/fused/maxiter5/p2': (5, 24, 3016.0, 100128.0, '0.0009780640000000003', ((3, 6), (4, 6), (31, 12)), None, '34ae0ef7d21dbda2'),
    'HPCGRankProgram/fused/x0/p3': (11, 100, 12368.0, 207152.0, '0.0033112080000000047', ((3, 24), (4, 24), (7, 2), (8, 2), (31, 48)), None, 'd220d868366adf7e'),
    'HPCGRankProgram/fused/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), None, 'b603bd4024771cb1'),
    'ResilientHPCGProgram/-/maxiter5/p2': (5, 62, 4396.0, 135072.0, '0.0029093359999999993', ((3, 6), (4, 6), (5, 6), (6, 6), (7, 6), (8, 6), (9, 1), (10, 1), (21, 3), (22, 3), (23, 3), (24, 3), (31, 12)), (0, 3, 3, None), '34ae0ef7d21dbda2'),
    'ResilientHPCGProgram/-/x0/p3': (11, 256, 18304.0, 287824.0, '0.009229968000000019', ((3, 24), (4, 24), (5, 24), (6, 24), (7, 26), (8, 26), (9, 2), (10, 2), (21, 14), (22, 14), (23, 14), (24, 14), (31, 48)), (0, 7, 6, None), 'd220d868366adf7e'),
    'ResilientHPCGProgram/-/solved-at-0/p2': (0, 12, 940.0, 25240.0, '0.0005716600000000001', ((3, 1), (4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (9, 1), (10, 1), (31, 2)), (0, 0, 0, None), 'b603bd4024771cb1'),
    'ResilientHPCGProgram/fused/maxiter5/p2': (5, 36, 4396.0, 135072.0, '0.0016093360000000007', ((3, 6), (4, 6), (21, 3), (22, 3), (23, 3), (24, 3), (31, 12)), (0, 3, 3, None), '34ae0ef7d21dbda2'),
    'ResilientHPCGProgram/fused/x0/p3': (11, 156, 18304.0, 287824.0, '0.005479968000000004', ((3, 24), (4, 24), (7, 2), (8, 2), (21, 14), (22, 14), (23, 14), (24, 14), (31, 48)), (0, 7, 6, None), 'd220d868366adf7e'),
    'ResilientHPCGProgram/fused/solved-at-0/p2': (0, 6, 940.0, 25240.0, '0.00027166', ((3, 1), (4, 1), (7, 1), (8, 1), (31, 2)), (0, 0, 0, None), 'b603bd4024771cb1'),
    'ResilientCGProgram/-/restart/p4': (32, 720, 39024.0, 45888.0, '0.024274392000000193', ((3, 168), (4, 168), (7, 84), (8, 84), (21, 54), (22, 54), (23, 54), (24, 54)), (0, 18, 14, 4), '3518286b02a9b15e'),
    'ResilientCGProgram/-/rollback/p4': (32, 870, 47280.0, 54960.0, '0.02933224000000025', ((3, 204), (4, 204), (7, 99), (8, 99), (21, 66), (22, 66), (23, 66), (24, 66)), (1, 22, 17, None), '3518286b02a9b15e'),
    'ResilientCGProgram/fused/restart/p4': (32, 552, 39024.0, 48864.0, '0.01867513600000009', ((3, 84), (4, 84), (7, 84), (8, 84), (21, 54), (22, 54), (23, 54), (24, 54)), (0, 18, 13, 4), 'bc9abcb7f7a62081'),
    'ResilientCGProgram/fused/rollback/p4': (32, 672, 47880.0, 59232.0, '0.022737368000000084', ((3, 102), (4, 102), (7, 102), (8, 102), (21, 66), (22, 66), (23, 66), (24, 66)), (1, 22, 16, None), 'bc9abcb7f7a62081'),
    'ResilientHPCGProgram/jacobi/-/restart/p4': (9, 186, 10776.0, 116296.0, '0.005047954000000001', ((3, 15), (4, 15), (5, 15), (6, 15), (7, 15), (8, 15), (21, 9), (22, 9), (23, 9), (24, 9), (31, 60)), (0, 3, 2, 4), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/-/rollback/p4': (9, 420, 24624.0, 262152.0, '0.011473258000000059', ((3, 33), (4, 33), (5, 33), (6, 33), (7, 33), (8, 33), (9, 3), (10, 3), (21, 21), (22, 21), (23, 21), (24, 21), (31, 132)), (1, 7, 5, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/restart/p4': (9, 126, 10776.0, 116296.0, '0.0030479539999999994', ((3, 15), (4, 15), (21, 9), (22, 9), (23, 9), (24, 9), (31, 60)), (0, 3, 2, 4), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/jacobi/fused/rollback/p4': (9, 282, 24624.0, 262152.0, '0.006873258000000003', ((3, 33), (4, 33), (21, 21), (22, 21), (23, 21), (24, 21), (31, 132)), (1, 7, 5, None), 'ebb03c0f56bada65'),
    'ResilientHPCGProgram/mg/-/restart/p4': (6, 60, 5448.0, 321152.0, '0.002117148', ((3, 6), (4, 6), (5, 6), (6, 6), (7, 12), (8, 12), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 1, 0, 4), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/-/rollback/p4': (6, 258, 23472.0, 1301008.0, '0.009084072000000021', ((3, 24), (4, 24), (5, 24), (6, 24), (7, 48), (8, 48), (9, 3), (10, 3), (21, 15), (22, 15), (23, 15), (24, 15)), (1, 5, 3, None), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/fused/restart/p4': (6, 36, 5448.0, 321152.0, '0.0013171480000000002', ((3, 6), (4, 6), (7, 6), (8, 6), (21, 3), (22, 3), (23, 3), (24, 3)), (0, 1, 0, 4), 'c8fe9a822e909fc6'),
    'ResilientHPCGProgram/mg/fused/rollback/p4': (6, 156, 23472.0, 1301008.0, '0.005684071999999999', ((3, 24), (4, 24), (7, 24), (8, 24), (21, 15), (22, 15), (23, 15), (24, 15)), (1, 5, 3, None), 'c8fe9a822e909fc6'),
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
