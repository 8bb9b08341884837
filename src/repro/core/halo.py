"""Halo (shadow-region) mat-vec: the HPF-2 ``SHADOW`` optimisation.

The paper's Scenario-1 layouts replicate the *entire* vector ``p`` on every
processor each mat-vec ("an all-to-all broadcast of the local vector
elements"), because "a row can have a nonzero entry in any column".  For
the banded/stencil matrices of the paper's CFD and structural applications
that is far more data than needed: each rank's rows only reference a thin
boundary of neighbouring blocks.  HPF-2 later standardised exactly this
optimisation as the ``SHADOW`` directive (ghost cells).

:class:`CsrHalo` implements it on this runtime: at construction it
inspects the sparsity pattern, computes which remote ``p`` elements each
rank actually reads (the shadow region), and each apply exchanges only
those -- point-to-point messages between the communicating pairs instead
of a machine-wide broadcast.  Benchmark E17 measures the saving on stencil
matrices and its collapse on irregular ones (where the shadow region
approaches the whole vector, which is why the paper's Section 5.2
machinery is still needed).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..hpf.distribution import Block, Distribution
from ..sparse.kernels import CompressedBlock
from .matvec import MatvecStrategy

__all__ = ["CsrHalo"]


class CsrHalo(MatvecStrategy):
    """Row-block CSR mat-vec with shadow-region exchange instead of broadcast.

    Elements are stored by whole-row atoms (as in ``csr_forall_aligned``),
    so the only communication is the halo: for each (reader, owner) rank
    pair, one message carrying the distinct remote ``p`` elements the
    reader's rows reference.
    """

    name = "csr_halo"

    def __init__(self, machine, matrix):
        super().__init__(machine, matrix)
        self.csr = self.matrix.to_csr()
        self._dist = Block(self.n, machine.nprocs)
        nprocs = machine.nprocs
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        #: one kernel handle per rank over its row block (views)
        self._blocks = [
            CompressedBlock(indptr, indices, data, *self._dist.local_range(r))
            for r in range(nprocs)
        ]
        #: forward halo: _recv_counts[dst][src] = words dst fetches from src
        self._recv_counts: List[Dict[int, int]] = [dict() for _ in range(nprocs)]
        self._local_nnz = np.zeros(nprocs, dtype=np.int64)
        for r in range(nprocs):
            lo, hi = self._dist.local_range(r)
            cols = indices[indptr[lo]:indptr[hi]]
            self._local_nnz[r] = cols.size
            if cols.size == 0:
                continue
            remote = np.unique(cols)
            remote = remote[(remote < lo) | (remote >= hi)]
            if remote.size == 0:
                continue
            owners = self._dist.owners(remote)
            for src, count in zip(*np.unique(owners, return_counts=True)):
                self._recv_counts[r][int(src)] = int(count)

    # ------------------------------------------------------------------ #
    def vector_distribution(self) -> Distribution:
        return self._dist

    def halo_words_total(self) -> float:
        """Words moved per apply (the broadcast moves ~n*(P-1)/P words)."""
        return float(
            sum(sum(c.values()) for c in self._recv_counts)
        )

    def halo_pairs(self) -> int:
        """Communicating (reader, owner) pairs per apply."""
        return sum(len(c) for c in self._recv_counts)

    def shadow_fraction(self) -> float:
        """Largest per-rank shadow size relative to the full vector."""
        if self.n == 0:
            return 0.0
        return max(
            (sum(c.values()) for c in self._recv_counts), default=0
        ) / float(self.n)

    def _charge_halo(self, counts: List[Dict[int, int]], tag: str) -> None:
        """Price one halo exchange: pairwise messages, receivers in parallel."""
        cost = self.machine.cost
        messages = 0
        words = 0.0
        per_rank_time = np.zeros(self.machine.nprocs)
        for dst, sources in enumerate(counts):
            for src, cnt in sources.items():
                hops = max(1, self.machine.topology.hops(src, dst))
                per_rank_time[dst] += cost.message_time(cnt, hops)
                messages += 1
                words += cnt
        if messages == 0:
            return
        time = float(per_rank_time.max())
        participants = [dst for dst, srcs in enumerate(counts) if srcs]
        self.machine.charge_comm_interval(
            "halo", messages, words, time, tag, participants=participants
        )

    # ------------------------------------------------------------------ #
    def apply(self, p, q, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        self._charge_halo(self._recv_counts, tag)
        p_full = p.to_global()  # locals + freshly exchanged shadow
        for r, block in enumerate(self._blocks):
            q.local(r)[:] = block.matvec(p_full)
            self.machine.charge_compute(r, 2.0 * float(self._local_nnz[r]))

    def apply_transpose(self, x, y, tag: str = "matvec_T") -> None:
        """Reverse halo: partial sums for remote columns go back to owners."""
        self._check_vectors(x, y)
        # the reverse exchange has the same pair structure with src/dst
        # swapped and identical counts
        reverse: List[Dict[int, int]] = [dict() for _ in range(self.machine.nprocs)]
        for dst, sources in enumerate(self._recv_counts):
            for src, cnt in sources.items():
                reverse[src][dst] = cnt
        self._charge_halo(reverse, tag)
        # one storage-order scatter over the whole matrix: the partial sums
        # meet at their owner in row order
        total = self.csr.rmatvec(x.to_global())
        for r in range(self.machine.nprocs):
            y.local(r)[:] = total[self._dist.local_indices_cached(r)]
            self.machine.charge_compute(r, 2.0 * float(self._local_nnz[r]))

    def storage_words_per_rank(self) -> np.ndarray:
        out = np.zeros(self.machine.nprocs)
        for r in range(self.machine.nprocs):
            lo, hi = self._dist.local_range(r)
            out[r] = (
                2.0 * self._local_nnz[r]
                + (hi - lo + 1)
                + sum(self._recv_counts[r].values())  # the shadow buffer
            )
        return out
