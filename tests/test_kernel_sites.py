"""Census of scatter-add sites: the local kernel stays the only product.

``repro.sparse.kernels`` is the one module that multiplies a compressed
block by a vector.  Every other ``np.add.at(`` in ``src/repro`` is a true
scatter that is *not* such a product, listed here with its reason; a new
site fails this test until it is either routed through the kernel or added
to the table with one.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: file -> (count, why these are not compressed-block products)
SCATTER_SITES = {
    "sparse/kernels.py": (2, "kernel"),  # matvec + rmatvec: the kernel itself
    "sparse/coo.py": (7, "coordinate"),  # duplicates, COO products, counts
    "sparse/csr.py": (1, "diagonal"),
    "sparse/csc.py": (1, "diagonal"),
    "sparse/generators.py": (1, "assembly"),  # row sums while building A
    "sparse/properties.py": (2, "diagnostics"),  # dominance row sums
    "hpf/array.py": (2, "histogram"),  # redistribution traffic counts
    "hpf/forall.py": (1, "staging"),  # FORALL many-to-one staging buffer
    "extensions/on_processor.py": (1, "histogram"),
    "extensions/partitioners.py": (1, "histogram"),  # per-rank load
    "extensions/sparse_directive.py": (1, "histogram"),
    "backend/reproducible.py": (3, "limbs"),  # superaccumulator carries
}

#: files whose per-apply index expansion the kernel handle replaced
EXPANSION_FREE = (
    "core/matvec.py",
    "core/halo.py",
    "baselines/message_passing.py",
    "backend/programs.py",
)


def _count(needle):
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = path.read_text().count(needle)
        if hits:
            found[path.relative_to(SRC).as_posix()] = hits
    return found


def test_scatter_add_census():
    want = {name: count for name, (count, _) in SCATTER_SITES.items()}
    assert _count("np.add.at(") == want
    assert sum(want.values()) == 23


def test_no_per_apply_index_expansion():
    for name in EXPANSION_FREE:
        text = (SRC / name).read_text()
        assert not re.search(r"np\.repeat\(\s*np\.arange\(", text), name
        assert "expanded_rows()" not in text and "expanded_cols()" not in text, name


def test_the_old_spellings_are_gone():
    from repro.backend import kernel

    assert not hasattr(kernel, "local_spmv")
    for name in ("backend/programs.py", "hpcg/program.py"):
        assert "row_ids" not in (SRC / name).read_text(), name
